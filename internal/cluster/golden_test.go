package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"rths/internal/telemetry"
	"rths/internal/trace"
)

// goldenReplayDigest is the SHA-256 of the per-stage ReplayTotals of the
// golden scenario below. Both backends must reproduce it. Changing it is a
// deliberate act: any change to the engine's arithmetic, RNG draw order,
// membership order or summation order moves it.
const goldenReplayDigest = "09e4c1f232cd8c8a4f2e7dda4cdc78b7fcac4d6be6e51557593423c231094fe3"

// goldenReplayHorizon is the golden scenario's length in stages.
const goldenReplayHorizon = 120

// replayDigest runs the golden scenario on the given backend and channel
// worker count and hashes every stage's totals: 4 channels with Markov
// zapping, a flash crowd at stage 30, partial views (ViewSize 4 over 48
// helpers, refreshed every 10 stages), re-allocation epochs and a
// replayed churn trace.
func replayDigest(t *testing.T, backend BackendKind, workers int) string {
	t.Helper()
	c, err := New(viewsConfig(71, backend, 4, workers))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := churnWorkload(t, goldenReplayHorizon, 23)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	err = c.ReplayTotals(w, goldenReplayHorizon, func(s StageTotals) {
		put(math.Float64bits(s.Welfare))
		put(math.Float64bits(s.OptWelfare))
		put(math.Float64bits(s.ServerLoad))
		put(math.Float64bits(s.MinDeficit))
		put(uint64(s.Played))
		put(uint64(s.Stalled))
		put(uint64(s.ActivePeers))
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenReplayDigest pins the golden scenario's per-stage totals to a
// committed digest on both backends, so a change that shifts every run the
// same way cannot pass as "bit-identical".
func TestGoldenReplayDigest(t *testing.T) {
	kinds := map[trace.EventKind]int{}
	for _, e := range churnWorkload(t, goldenReplayHorizon, 23).Events {
		kinds[e.Kind]++
	}
	if kinds[trace.Join] == 0 || kinds[trace.Leave] == 0 || kinds[trace.Switch] == 0 {
		t.Fatalf("golden trace inert: %v", kinds)
	}
	for _, backend := range []BackendKind{BackendMemory, BackendDistsim} {
		if got := replayDigest(t, backend, 0); got != goldenReplayDigest {
			t.Errorf("backend %v: replay digest %s, want %s", backend, got, goldenReplayDigest)
		}
	}
}

// TestMemoryWorkersReplayAcrossGOMAXPROCS runs the golden scenario on the
// memory backend with two channel workers. At GOMAXPROCS=1 the workers
// run inline; at GOMAXPROCS=2 they run on goroutines in parallel. Both
// must reproduce the golden digest.
func TestMemoryWorkersReplayAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if got := replayDigest(t, BackendMemory, 2); got != goldenReplayDigest {
			t.Errorf("GOMAXPROCS=%d: replay digest %s, want %s", procs, got, goldenReplayDigest)
		}
	}
}

// goldenFaultsDigests pins the golden fault scenario (see faultsDigest),
// one SHA-256 per late-batch semantics. It covers the faulty distsim path
// — drops, late batches, the crash and partition windows, and the
// failure detector's evictions and readmissions — that the zero-loss
// replay digest never exercises.
var goldenFaultsDigests = []struct {
	queueing bool
	digest   string
}{
	{true, "401f7616add64578d2e31f38c92bd0122deea4e4663857af19d37289da87b60e"},
	// Under loss semantics the detector readmits helper 66 to channel 2
	// at the stage-70 boundary that also moves it to channel 1.
	{false, "c77427a2859cf5bf0419031505b8d9545343e4180ed8c419e8d78ae17dd27da5"},
}

// goldenFaultsEpochs is the golden fault scenario's length in epochs
// (120 stages: the crash 25–55 and the partition 40–80 both close inside).
const goldenFaultsEpochs = 12

// faultsDigest runs faultConfig — lossy links, one crash window, one
// partition, the failure detector, series samples every 10 stages — with
// the given FaultPlan.Queueing and channel worker count, and hashes every
// EpochMetrics JSON record and the bytes of the lifecycle trace.
func faultsDigest(t *testing.T, queueing bool, workers int) string {
	t.Helper()
	var trace bytes.Buffer
	cfg := faultConfig(211, true)
	cfg.Faults.Queueing = queueing
	cfg.Workers = workers
	cfg.Trace = telemetry.NewTracer(&trace)
	cfg.SeriesEvery = 10
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := sha256.New()
	var evicted, readmitted, late, faults, moves int
	var recErr error
	err = c.Run(goldenFaultsEpochs, func(m EpochMetrics) {
		rec, err := json.Marshal(m)
		if err != nil {
			recErr = err
		}
		h.Write(append(rec, '\n'))
		evicted += m.Evicted
		readmitted += m.Readmitted
		late += m.LateServed
		faults += m.FaultMsgs
		moves += m.Moves
	})
	if err == nil {
		err = recErr
	}
	if err == nil {
		err = cfg.Trace.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 || readmitted == 0 || faults == 0 || moves == 0 || (late > 0) != queueing {
		t.Fatalf("queueing=%v: golden fault scenario inert (evicted=%d readmitted=%d fault_msgs=%d helper_moves=%d late_served=%d)",
			queueing, evicted, readmitted, faults, moves, late)
	}
	h.Write(trace.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenFaultsDigest pins the faulty distsim path to committed
// digests inside go test, not only in the benchmark module.
func TestGoldenFaultsDigest(t *testing.T) {
	for _, g := range goldenFaultsDigests {
		if got := faultsDigest(t, g.queueing, 0); got != g.digest {
			t.Errorf("queueing=%v: faults digest %s, want %s", g.queueing, got, g.digest)
		}
	}
}

// TestDistsimWorkersGoldenAcrossGOMAXPROCS runs the distsim backend with
// two channel workers on the golden replay scenario and the golden fault
// scenarios. At GOMAXPROCS=1 the managers run inline; at GOMAXPROCS=2
// they run on two goroutines, with helper hand-offs (re-allocation moves,
// detector evictions and readmissions) landing while other managers
// step. Both must reproduce the committed digests.
func TestDistsimWorkersGoldenAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if got := replayDigest(t, BackendDistsim, 2); got != goldenReplayDigest {
			t.Errorf("GOMAXPROCS=%d: replay digest %s, want %s", procs, got, goldenReplayDigest)
		}
		for _, g := range goldenFaultsDigests {
			if got := faultsDigest(t, g.queueing, 2); got != g.digest {
				t.Errorf("GOMAXPROCS=%d queueing=%v: faults digest %s, want %s", procs, g.queueing, got, g.digest)
			}
		}
	}
}
