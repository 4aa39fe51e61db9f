package distsim

import (
	"math"
	"testing"

	"rths/internal/telemetry"
)

func TestProfileRoundSyntheticSpans(t *testing.T) {
	var p RoundProfile
	wall := []int64{100, 400, 200, 100}
	scratch := make([]int64, len(wall))
	profileRound(&p, 7, wall, scratch)
	if p.Round != 7 || p.Straggler != 1 || p.StragglerWallNs != 400 {
		t.Fatalf("profile = %+v", p)
	}
	// sorted {100,100,200,400} -> median element [2] = 200
	if p.MedianWallNs != 200 {
		t.Fatalf("median = %d, want 200", p.MedianWallNs)
	}
	if want := (400.0 - 200.0) / 400.0; math.Abs(p.LeadRatio-want) != 0 {
		t.Fatalf("lead = %g, want %g", p.LeadRatio, want)
	}
	// idle = 300+0+200+300 = 800, total = 4*400 = 1600
	if p.IdleNs != 800 || p.TotalNs != 1600 {
		t.Fatalf("idle/total = %d/%d, want 800/1600", p.IdleNs, p.TotalNs)
	}
}

func TestProfileRoundTieBreaksLowAndZeroSafe(t *testing.T) {
	var p RoundProfile
	profileRound(&p, 0, []int64{300, 300, 100}, make([]int64, 3))
	if p.Straggler != 0 {
		t.Fatalf("tie broke to %d, want 0", p.Straggler)
	}
	profileRound(&p, 1, []int64{0, 0}, make([]int64, 2))
	if p.LeadRatio != 0 || p.IdleNs != 0 || p.TotalNs != 0 {
		t.Fatalf("zero spans produced %+v", p)
	}
}

// Spans flow end to end: managers stamp their windows with the injected
// clock, the coordinator records one span per channel per round into the
// ring, and the profile and the cumulative barrier tax derive from them.
// The clock reads k² on its k-th call (calls made in order: the round's
// start, each channel's start and end, the round's end), so channel ci's
// span in round r is (10r+3+2ci)² − (10r+2+2ci)² = 20r+5+4ci ns: every
// round's straggler is channel 3, idle is 12+8+4+0 = 24 ns and total is
// 4·(20r+17) ns.
func TestRoundSpansRecordedAndProfiled(t *testing.T) {
	cfg := fourChannelConfig(11)
	rec := telemetry.NewRecorder(64)
	var calls int64
	cfg.Spans = rec
	cfg.SpanClock = func() int64 { calls++; return calls * calls }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const rounds = 5
	for r := 0; r < rounds; r++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		for ci := range stats.Channels {
			cr := &stats.Channels[ci]
			if got, want := cr.EndNs-cr.StartNs, int64(20*r+5+4*ci); got != want {
				t.Fatalf("round %d channel %d span %d, want %d", r, ci, got, want)
			}
		}
		want := RoundProfile{
			Round:           r,
			Straggler:       3,
			StragglerWallNs: int64(20*r + 17),
			MedianWallNs:    int64(20*r + 13),
			LeadRatio:       4 / float64(20*r+17),
			IdleNs:          24,
			TotalNs:         int64(4 * (20*r + 17)),
		}
		if stats.Profile == nil || *stats.Profile != want {
			t.Fatalf("round %d profile %+v, want %+v", r, stats.Profile, want)
		}
	}
	if got := rec.Total(); got != rounds*4 {
		t.Fatalf("recorded %d spans, want %d", got, rounds*4)
	}
	last := rec.Snapshot()
	for i, s := range last[len(last)-4:] {
		if s.Round != rounds-1 || s.Channel != i {
			t.Fatalf("tail span %d = %+v, want round %d channel %d", i, s, rounds-1, i)
		}
	}
	// Σ idle = 5·24 = 120 ns over Σ total = 80·(0+1+2+3+4) + 5·68 = 1140 ns.
	if got, want := rt.BarrierTax(), 120.0/1140.0; got != want {
		t.Fatalf("barrier tax = %g, want 120/1140 = %g", got, want)
	}
}

// Profiling is observation only: a profiled run must report the exact
// welfare/message numbers of an unprofiled one.
func TestSpansDoNotPerturb(t *testing.T) {
	runSum := func(profiled bool) (float64, int) {
		cfg := fourChannelConfig(23)
		if profiled {
			cfg.Spans = telemetry.NewRecorder(32)
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		welfare, msgs := 0.0, 0
		for r := 0; r < 10; r++ {
			stats, err := rt.StepRound()
			if err != nil {
				t.Fatal(err)
			}
			for ci := range stats.Channels {
				welfare += stats.Channels[ci].Welfare
			}
			msgs += stats.Msgs
		}
		return welfare, msgs
	}
	w0, m0 := runSum(false)
	w1, m1 := runSum(true)
	if w0 != w1 || m0 != m1 {
		t.Fatalf("profiled run diverged: welfare %g vs %g, msgs %d vs %d", w0, w1, m0, m1)
	}
}

// Without Spans or SpanClock the hot path must not touch any clock and
// Profile must stay nil.
func TestSpansDisabledByDefault(t *testing.T) {
	rt, err := New(fourChannelConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Profile != nil {
		t.Fatal("unprofiled run returned a Profile")
	}
	for ci := range stats.Channels {
		if stats.Channels[ci].StartNs != 0 || stats.Channels[ci].EndNs != 0 {
			t.Fatal("spans stamped while disabled")
		}
	}
	if rt.BarrierTax() != 0 {
		t.Fatal("barrier tax nonzero while disabled")
	}
}
