package distsim

import (
	"strings"
	"testing"

	"rths/internal/telemetry"
)

// A quiet round (no migrations) costs each channel exactly
// tick + report + one attach and one reply per pool helper, so the whole
// deployment sends 2H + 2C messages and H attach batches per round.
func TestRoundAccountingQuietRound(t *testing.T) {
	cfg := fourChannelConfig(5)
	sizes := telemetry.NewHistogram(telemetry.SizeBuckets())
	cfg.BatchSizes = sizes
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	helpers := len(cfg.Helpers)
	channels := len(cfg.Channels)
	peers := 0
	for _, ch := range cfg.Channels {
		peers += ch.InitialPeers
	}
	for round := 0; round < 3; round++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		if want := 2*helpers + 2*channels; stats.Msgs != want {
			t.Fatalf("round %d: Msgs = %d, want 2H+2C = %d", round, stats.Msgs, want)
		}
		if stats.Batches != helpers {
			t.Fatalf("round %d: Batches = %d, want H = %d", round, stats.Batches, helpers)
		}
		var msgs, batches int
		for ci := range stats.Channels {
			ch := &stats.Channels[ci]
			pool := len(ch.PoolIDs)
			if want := 2 + 2*pool; ch.Msgs != want {
				t.Fatalf("round %d channel %d: Msgs = %d, want 2+2·pool = %d", round, ci, ch.Msgs, want)
			}
			if ch.Batches != pool {
				t.Fatalf("round %d channel %d: Batches = %d, want pool = %d", round, ci, ch.Batches, pool)
			}
			msgs += ch.Msgs
			batches += ch.Batches
		}
		if msgs != stats.Msgs || batches != stats.Batches {
			t.Fatalf("round %d: channel sums (%d, %d) != totals (%d, %d)",
				round, msgs, batches, stats.Msgs, stats.Batches)
		}
		if stats.WallNs <= 0 {
			t.Fatalf("round %d: WallNs = %d, want > 0", round, stats.WallNs)
		}
	}
	// The manager-local size histograms merge into the coordinator's copy:
	// one observation per batch, sizes summing to the attached peers.
	if got, want := sizes.Count(), uint64(3*helpers); got != want {
		t.Fatalf("batch-size observations = %d, want %d", got, want)
	}
	if got, want := sizes.Sum(), float64(3*peers); got != want {
		t.Fatalf("batch-size sum = %g, want %g (every peer attached each round)", got, want)
	}
}

// A migration round pays one extra ownership hand-off message per moved
// helper on the gaining channel.
func TestRoundAccountingMigration(t *testing.T) {
	cfg := fourChannelConfig(6)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// Move helper 3 (channel 3's first pool helper — the pool is [3, 7])
	// to channel 0.
	if err := rt.AddHelper(0, 3, cfg.Helpers[3]); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(3, 0, 3); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	helpers := len(cfg.Helpers)
	channels := len(cfg.Channels)
	if want := 2*helpers + 2*channels + 1; stats.Msgs != want {
		t.Fatalf("migration round: Msgs = %d, want 2H+2C+1 = %d", stats.Msgs, want)
	}
	if stats.Batches != helpers {
		t.Fatalf("migration round: Batches = %d, want H = %d", stats.Batches, helpers)
	}
}

// A RemoveHelper whose local slot does not hold the named helper must
// fail the channel, not remove whatever the slot holds: the silent path
// leaves the named node in two pools at once, served twice a round.
func TestRemoveHelperSlotMismatchErrors(t *testing.T) {
	cfg := fourChannelConfig(6)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddHelper(0, 3, cfg.Helpers[3]); err != nil {
		t.Fatal(err)
	}
	// Channel 3's pool is [3, 7]: slot 1 holds helper 7, not helper 3.
	if err := rt.RemoveHelper(3, 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil || !strings.Contains(err.Error(), "local slot 1 holds helper 7") {
		t.Fatalf("mismatched removal round returned %v, want a slot-mismatch error", err)
	}
}
