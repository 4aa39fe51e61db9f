package distsim

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rths/internal/core"
	"rths/internal/xrand"
)

func uniformHelpers(n int) []core.HelperSpec {
	out := make([]core.HelperSpec, n)
	for j := range out {
		out[j] = core.DefaultHelperSpec()
	}
	return out
}

// fourChannelConfig builds a 4-channel deployment with skewed audiences
// and a round-robin initial assignment.
func fourChannelConfig(seed uint64) Config {
	helpers := uniformHelpers(8)
	assign := make([]int, len(helpers))
	for h := range assign {
		assign[h] = h % 4
	}
	cfg := Config{
		Helpers: helpers,
		Assign:  assign,
	}
	for ci, peers := range []int{20, 10, 5, 5} {
		cfg.Channels = append(cfg.Channels, ChannelConfig{
			Name:          string(rune('a' + ci)),
			Seed:          seed + uint64(ci),
			InitialPeers:  peers,
			DemandPerPeer: 500,
			StartupStages: 2,
		})
	}
	return cfg
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no channels", func(c *Config) { c.Channels = nil }},
		{"no helpers", func(c *Config) { c.Helpers = nil; c.Assign = nil }},
		{"assign length mismatch", func(c *Config) { c.Assign = c.Assign[:3] }},
		{"assign out of range", func(c *Config) { c.Assign[0] = 9 }},
		{"channel without helpers", func(c *Config) {
			for h := range c.Assign {
				c.Assign[h] = 0
			}
		}},
		{"negative startup", func(c *Config) { c.Channels[0].StartupStages = -1 }},
		{"bad helper level", func(c *Config) { c.Helpers[0].Levels = []float64{-5} }},
		{"negative peers", func(c *Config) { c.Channels[0].InitialPeers = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fourChannelConfig(1)
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestRoundInvariants drives the protocol and checks the per-round channel
// views: loads conserve peers, rates equal C_j/load_j, and welfare equals
// the occupied capacity, per channel.
func TestRoundInvariants(t *testing.T) {
	rt, err := New(fourChannelConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	peers := []int{20, 10, 5, 5}
	for round := 0; round < 100; round++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Round != round {
			t.Fatalf("round %d reported as %d", round, stats.Round)
		}
		for ci, ch := range stats.Channels {
			loadSum := 0
			for _, l := range ch.Loads {
				loadSum += l
			}
			if loadSum != peers[ci] {
				t.Fatalf("round %d channel %d: loads sum %d, want %d", round, ci, loadSum, peers[ci])
			}
			welfare := 0.0
			for j, l := range ch.Loads {
				if l > 0 {
					welfare += ch.Capacities[j]
				}
			}
			if math.Abs(welfare-ch.Welfare) > 1e-6 {
				t.Fatalf("round %d channel %d: welfare %g vs occupied capacity %g",
					round, ci, ch.Welfare, welfare)
			}
			for i, a := range ch.Actions {
				want := ch.Capacities[a] / float64(ch.Loads[a])
				if math.Abs(ch.Rates[i]-want) > 1e-9 {
					t.Fatalf("round %d channel %d peer %d: rate %g want %g",
						round, ci, i, ch.Rates[i], want)
				}
			}
			if ch.Played+ch.Stalled != peers[ci] {
				t.Fatalf("round %d channel %d: %d buffer ticks for %d peers",
					round, ci, ch.Played+ch.Stalled, peers[ci])
			}
			if ch.Unserved != 0 || ch.LostMsgs != 0 || ch.LateMsgs != 0 {
				t.Fatalf("round %d channel %d: losses on perfect links: %+v", round, ci, ch)
			}
		}
	}
}

// TestDeterministicAcrossRuns pins that two identical deployments produce
// identical welfare streams.
func TestDeterministicAcrossRuns(t *testing.T) {
	collect := func() []float64 {
		rt, err := New(fourChannelConfig(77))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var welfare []float64
		for round := 0; round < 80; round++ {
			stats, err := rt.StepRound()
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, ch := range stats.Channels {
				sum += ch.Welfare
			}
			welfare = append(welfare, sum)
		}
		return welfare
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: %g vs %g ", i, a[i], b[i])
		}
	}
}

// TestMembershipOps drives joins and departures through the op queue and
// checks the next round reflects them.
func TestMembershipOps(t *testing.T) {
	rt, err := New(fourChannelConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := rt.AddPeer(2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.RemovePeer(0, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Channels[2].Actions); got != 8 {
		t.Fatalf("channel 2 has %d peers after 3 joins, want 8", got)
	}
	if got := len(stats.Channels[0].Actions); got != 19 {
		t.Fatalf("channel 0 has %d peers after departure, want 19", got)
	}
}

// TestHelperMigrationHandsOff moves a helper between channels through the
// control-message path and verifies the pools, then moves it back.
func TestHelperMigrationHandsOff(t *testing.T) {
	cfg := fourChannelConfig(9)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// Helper 0 starts on channel 0 at local index 0 (ids 0 and 4 assigned
	// round-robin). Move it to channel 1, then back.
	spec := cfg.Helpers[0]
	if err := rt.AddHelper(1, 0, spec); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Channels[1].Loads); got != 3 {
		t.Fatalf("gaining channel pool %d, want 3", got)
	}
	if got := len(stats.Channels[0].Loads); got != 1 {
		t.Fatalf("losing channel pool %d, want 1", got)
	}
	// Round trip: channel 1's pool is now [1, 5, 0]; helper 0 is local 2.
	if err := rt.AddHelper(0, 0, spec); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		stats, err = rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := len(stats.Channels[0].Loads); got != 2 {
		t.Fatalf("round-trip pool %d, want 2", got)
	}
}

// TestRemoveLastHelperSurfaces pins the failure mode: migrating a
// channel's only helper away without a replacement must surface an error
// (core refuses to leave a system helperless), not corrupt the protocol.
func TestRemoveLastHelperSurfaces(t *testing.T) {
	cfg := Config{
		Channels: []ChannelConfig{
			{Name: "a", Seed: 1, InitialPeers: 4, DemandPerPeer: 500},
			{Name: "b", Seed: 2, InitialPeers: 4, DemandPerPeer: 500},
		},
		Helpers: uniformHelpers(2),
		Assign:  []int{0, 1},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("stripping a channel's last helper did not surface")
	}
}

// TestLossyLinksDegrade runs the same deployment under increasingly lossy
// links: drops and delays must be counted separately, unserved peers must
// appear, and observed welfare must fall (full drop ⇒ zero welfare).
func TestLossyLinksDegrade(t *testing.T) {
	run := func(link LinkModel) (welfare float64, unserved, lost, late int) {
		cfg := fourChannelConfig(33)
		cfg.Link = link
		cfg.LinkSeed = 99
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for round := 0; round < 60; round++ {
			stats, err := rt.StepRound()
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range stats.Channels {
				welfare += ch.Welfare
				unserved += ch.Unserved
				lost += ch.LostMsgs
				late += ch.LateMsgs
			}
		}
		return welfare, unserved, lost, late
	}
	clean, cleanUnserved, cleanLost, cleanLate := run(nil)
	if cleanUnserved != 0 || cleanLost != 0 || cleanLate != 0 {
		t.Fatalf("perfect links counted losses: unserved=%d lost=%d late=%d",
			cleanUnserved, cleanLost, cleanLate)
	}
	lossy, lossyUnserved, lossyLost, lossyLate := run(Lossy{DropProb: 0.3})
	if lossyUnserved == 0 || lossyLost == 0 {
		t.Fatalf("30%% drop counted no losses: unserved=%d lost=%d", lossyUnserved, lossyLost)
	}
	if lossyLate != 0 {
		t.Fatalf("drop-only link counted %d late messages", lossyLate)
	}
	if lossy >= clean {
		t.Fatalf("30%% drop welfare %g not below clean %g", lossy, clean)
	}
	_, lateUnserved, lateLost, lateLate := run(Lossy{DelayProb: 0.3, MaxDelay: 2})
	if lateLate == 0 || lateUnserved == 0 {
		t.Fatalf("30%% delay counted no late messages: unserved=%d late=%d", lateUnserved, lateLate)
	}
	if lateLost != 0 {
		t.Fatalf("delay-only link counted %d drops", lateLost)
	}
	dead, _, _, _ := run(Lossy{DropProb: 1})
	if dead != 0 {
		t.Fatalf("100%% drop still realized welfare %g", dead)
	}
}

// TestLossyDeterministic pins that lossy runs replay exactly for a fixed
// LinkSeed, every link drawing from its own stream.
func TestLossyDeterministic(t *testing.T) {
	collect := func() []float64 {
		cfg := fourChannelConfig(21)
		cfg.Link = Lossy{DropProb: 0.2, DelayProb: 0.2, MaxDelay: 3}
		cfg.LinkSeed = 4
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var welfare []float64
		for round := 0; round < 50; round++ {
			stats, err := rt.StepRound()
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, ch := range stats.Channels {
				sum += ch.Welfare
			}
			welfare = append(welfare, sum)
		}
		return welfare
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestNewLossyValidation(t *testing.T) {
	if _, err := NewLossy(-0.1, 0, 0); err == nil {
		t.Fatal("negative drop accepted")
	}
	if _, err := NewLossy(0, 1.5, 2); err == nil {
		t.Fatal("delay prob > 1 accepted")
	}
	if _, err := NewLossy(0, 0.5, 0); err == nil {
		t.Fatal("delay without max accepted")
	}
	l, err := NewLossy(0.5, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	drops, delays := 0, 0
	for k := 0; k < 1000; k++ {
		d, drop := l.Deliver(r, k)
		if drop {
			drops++
		} else if d > 0 {
			delays++
			if d > 2 {
				t.Fatalf("delay %d beyond MaxDelay", d)
			}
		}
	}
	if drops == 0 || delays == 0 {
		t.Fatalf("degenerate sampling: %d drops, %d delays", drops, delays)
	}
}

// TestCloseBeforeStart covers the construct-then-abandon path: Close
// before any round is clean and idempotent, and closes the op surface.
func TestCloseBeforeStart(t *testing.T) {
	rt, err := New(fourChannelConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("StepRound on closed runtime accepted")
	}
	if err := rt.AddPeer(0); err == nil {
		t.Fatal("AddPeer on closed runtime accepted")
	}
}

// TestErrorKeepsProtocolAlive pins the failure contract: after a channel
// errors, StepRound keeps returning the error while the healthy channels
// keep simulating.
func TestErrorKeepsProtocolAlive(t *testing.T) {
	rt, err := New(fourChannelConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// An out-of-range departure poisons channel 3 at the next round.
	if err := rt.RemovePeer(3, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("invalid op did not surface")
	}
	// Healthy channels keep simulating; the failed one keeps reporting —
	// with zeroed stats, not its last good round's values.
	stats, err := rt.StepRound()
	if err == nil {
		t.Fatal("sticky error cleared")
	}
	if stats.Channels[0].Welfare <= 0 {
		t.Fatal("healthy channel stopped simulating")
	}
	dead := stats.Channels[3]
	if dead.Welfare != 0 || dead.OptWelfare != 0 || len(dead.Actions) != 0 || dead.Played != 0 {
		t.Fatalf("failed channel reports stale stats: %+v", dead)
	}
}

// TestCloseAfterFailedMigration pins a migration that half-applies: the
// losing manager drops the helper but the gaining manager's AddHelper
// fails, so the node belongs to no pool. The failure must surface and
// stay sticky, no live channel may serve the orphaned node, and Close
// must stay clean and idempotent, closing the round surface.
func TestCloseAfterFailedMigration(t *testing.T) {
	cfg := fourChannelConfig(8)
	cfg.UtilityScale = 900 // the default helpers' max level
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// Helper 0 lives on channel 0. The gaining channel rejects the spec
	// (level above the shared utility scale), the losing channel's removal
	// succeeds: helper node 0 is now orphaned.
	bad := core.HelperSpec{Levels: []float64{5000}, InitState: 0}
	if err := rt.AddHelper(1, 0, bad); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		stats, err := rt.StepRound()
		if err == nil || !strings.Contains(err.Error(), `channel "b" gain helper 0`) {
			t.Fatalf("round %d after the failed migration returned %v, want channel b's error", round, err)
		}
		for ci := range stats.Channels {
			if slices.Contains(stats.Channels[ci].PoolIDs, 0) {
				t.Fatalf("round %d: channel %d still serves orphaned helper 0", round, ci)
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("StepRound on closed runtime accepted")
	}
}

// TestFirstErrorIsLowestChannel pins which error StepRound returns when
// several channels fail in one round: the lowest channel index's, at
// every Workers value and whether or not the workers run in parallel.
func TestFirstErrorIsLowestChannel(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 2} {
			cfg := fourChannelConfig(11)
			cfg.Workers = workers
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Out-of-range departures poison channels 3 and 1 in one round.
			if err := rt.RemovePeer(3, 99); err != nil {
				t.Fatal(err)
			}
			if err := rt.RemovePeer(1, 99); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				_, err := rt.StepRound()
				if err == nil || !strings.Contains(err.Error(), `channel "b" leave`) {
					t.Fatalf("GOMAXPROCS=%d workers=%d round %d: error %v, want channel b's", procs, workers, round, err)
				}
			}
			rt.Close()
		}
	}
}

// TestHelperInTwoPoolsRefused pins the ownership guard: a helper added to
// a second channel without leaving its first would be served twice a
// round, so StepRound refuses the round, stickily, before any manager runs.
func TestHelperInTwoPoolsRefused(t *testing.T) {
	cfg := fourChannelConfig(6)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.AddHelper(0, 3, cfg.Helpers[3]); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := rt.StepRound(); err == nil || !strings.Contains(err.Error(), "helper 3 queued into 2 pools") {
			t.Fatalf("round %d: error %v, want the two-pool refusal", round, err)
		}
	}
	if rt.Round() != 0 {
		t.Fatalf("refused rounds ran: Round() = %d", rt.Round())
	}
	if err := rt.RemoveHelper(0, 0, 99); err == nil {
		t.Fatal("RemoveHelper with an out-of-range id accepted")
	}
}

// TestSteadyRoundAllocatesNothing pins the zero-alloc round: with lossy
// links and a fault plan but no queued ops, a steady-state StepRound on
// inline managers allocates nothing.
func TestSteadyRoundAllocatesNothing(t *testing.T) {
	for _, workers := range []int{0, 1} {
		cfg := fourChannelConfig(19)
		cfg.Workers = workers
		cfg.Link = Lossy{DropProb: 0.05, DelayProb: 0.1, MaxDelay: 2}
		cfg.LinkSeed = 3
		cfg.Faults = &FaultPlan{
			HelperDomains: []int{0, 1, 0, 1, 0, 1, 0, 1},
			Crashes:       []HelperCrash{{Helper: 2, From: 5, Until: 1 << 30}},
			Partitions:    []Partition{{Domain: 1, From: 10, Until: 1 << 30}},
			Queueing:      true,
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			if _, err := rt.StepRound(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := rt.StepRound(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: %g allocs per steady-state round, want 0", workers, allocs)
		}
		rt.Close()
	}
}

// fixedSelector always picks helper 0 — the degenerate all-on-one path.
type fixedSelector struct{ m int }

func (f fixedSelector) Select(*xrand.Rand) int                   { return 0 }
func (f fixedSelector) Update(action int, utility float64) error { return nil }
func (f fixedSelector) NumActions() int                          { return f.m }

func TestPluggablePolicies(t *testing.T) {
	cfg := fourChannelConfig(3)
	cfg.Factory = func(_, m int, _ float64) (core.Selector, error) {
		return fixedSelector{m: m}, nil
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	for ci, ch := range stats.Channels {
		if ch.Loads[0] != len(ch.Actions) {
			t.Fatalf("channel %d: fixed policy loads %v", ci, ch.Loads)
		}
	}
}

// TestInvalidPolicyActionSurfaces checks that a policy returning an action
// outside its action set comes back as an error from StepRound.
func TestInvalidPolicyActionSurfaces(t *testing.T) {
	cfg := fourChannelConfig(3)
	cfg.Factory = func(_, m int, _ float64) (core.Selector, error) {
		return rogueSelector{m: m}, nil
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("out-of-range policy action not surfaced")
	}
}

// rogueSelector picks an action outside its action set.
type rogueSelector struct{ m int }

func (r rogueSelector) Select(*xrand.Rand) int                   { return 99 }
func (r rogueSelector) Update(action int, utility float64) error { return nil }
func (r rogueSelector) NumActions() int                          { return r.m }

// TestHelperGainedAndLostInOneRound pins the hand-off when a helper is
// added to two channels in one round and removed from one of them — what
// internal/cluster queues when the failure detector readmits a helper at
// the same boundary that re-allocation moves it. Only the channel that
// keeps the helper may step it, and it must step its own freshly drawn
// process: every reported capacity is the level of the owning system's
// process state.
func TestHelperGainedAndLostInOneRound(t *testing.T) {
	cfg := fourChannelConfig(12)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Channel 0's pool is [0, 4]: orphan helper 0 first, as an eviction does.
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// Readmit to channel 0 (pool [4, 0]), move to channel 1, drop from 0.
	spec := cfg.Helpers[0]
	for _, step := range []func() error{
		func() error { return rt.AddHelper(0, 0, spec) },
		func() error { return rt.AddHelper(1, 0, spec) },
		func() error { return rt.RemoveHelper(0, 1, 0) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 40; round++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.Channels[1].PoolIDs; len(got) != 3 || got[2] != 0 {
			t.Fatalf("round %d: channel 1 pool %v, want [1 5 0]", round, got)
		}
		for ci, m := range rt.managers {
			for j, c := range stats.Channels[ci].Capacities {
				proc := m.sys.HelperProcess(j)
				if want := m.sys.HelperLevels(j)[proc.State()]; c != want {
					t.Fatalf("round %d channel %d slot %d: capacity %g, owner's process reads %g",
						round, ci, j, c, want)
				}
			}
		}
	}
}
