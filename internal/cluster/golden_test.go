package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

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
