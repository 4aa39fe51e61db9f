package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// goldenStageDigests are the SHA-256 digests of every StageResult of the
// golden scenarios below, keyed by scenario name. Changing one is a
// deliberate act: any change to the engine's arithmetic, RNG draw order,
// shard striding or summation order moves it. Workers 0 and 1 are the same
// engine and must share a digest; the split-phase run replays the
// views/workers=0 scenario and must match it.
var goldenStageDigests = map[string]string{
	"full/workers=0":  "7a0e9c6898323bc4ec1515bf087d330c453cf4d2e63773b03cb8d40d86b02aec",
	"full/workers=1":  "7a0e9c6898323bc4ec1515bf087d330c453cf4d2e63773b03cb8d40d86b02aec",
	"full/workers=3":  "eade6942d9c275386700dad68f18ece7f92ef927df8b1e08d7c615093f7a63c6",
	"views/workers=0": "6763ed7a31430de8dc5ce66105bddecbb2851b81b2c139c64c50caa369b53a1e",
	"views/workers=1": "6763ed7a31430de8dc5ce66105bddecbb2851b81b2c139c64c50caa369b53a1e",
	"views/workers=3": "11749721af15655694ecec6166f04e0e3d4714837b1b453cba2cbfaf9a3cb694",
	"split/views":     "6763ed7a31430de8dc5ce66105bddecbb2851b81b2c139c64c50caa369b53a1e",
}

// goldenStages is the golden scenarios' length in stages.
const goldenStages = 70

// goldenConfig is the golden population: 150 peers with a streaming
// demand on full views of 6 helpers, or on ViewSize-4 views of a 10-helper
// pool refreshed every 7 stages.
func goldenConfig(workers int, views bool) Config {
	h := 6
	if views {
		h = 10
	}
	cfg := defaultConfig(150, h, 2718)
	cfg.DemandPerPeer = 260
	cfg.Workers = workers
	if views {
		cfg.ViewSize = 4
		cfg.ViewRefresh = 7
	}
	return cfg
}

// goldenChurn applies the golden scenario's between-stage churn: a join,
// a departure, a helper arrival and a helper departure at fixed stages.
func goldenChurn(t *testing.T, s *System, stage int) {
	t.Helper()
	var err error
	switch stage {
	case 15:
		_, err = s.AddPeer(nil, 260)
	case 25:
		err = s.RemovePeer(3)
	case 35:
		err = s.AddHelper(DefaultHelperSpec())
	case 45:
		err = s.RemoveHelper(1)
	case 55:
		_, err = s.AddPeer(nil, 260)
	}
	if err != nil {
		t.Fatalf("stage %d churn: %v", stage, err)
	}
}

// hashStage folds one StageResult into h.
func hashStage(h hash.Hash, r StageResult) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.Stage))
	put(math.Float64bits(r.Welfare))
	put(math.Float64bits(r.OptWelfare))
	put(math.Float64bits(r.ServerLoad))
	put(math.Float64bits(r.MinDeficit))
	put(uint64(r.ViewSwaps))
	put(uint64(len(r.Loads)))
	for _, l := range r.Loads {
		put(uint64(l))
	}
	put(uint64(len(r.Actions)))
	for _, a := range r.Actions {
		put(uint64(a))
	}
	for _, x := range r.Rates {
		put(math.Float64bits(x))
	}
}

// stepDigest runs the golden scenario through Step and hashes every stage.
func stepDigest(t *testing.T, workers int, views bool) string {
	t.Helper()
	s, err := New(goldenConfig(workers, views))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	swaps := 0
	for stage := 0; stage < goldenStages; stage++ {
		goldenChurn(t, s, stage)
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		hashStage(h, res)
		swaps += res.ViewSwaps
	}
	if views && swaps == 0 {
		t.Fatal("golden views scenario never refreshed a view")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// splitDigest runs the golden scenario (partial views, sequential engine)
// through the split-phase protocol, advancing the helper chains outside
// the system the way the distributed runtime does.
func splitDigest(t *testing.T) string {
	t.Helper()
	s, err := New(goldenConfig(0, true))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for stage := 0; stage < goldenStages; stage++ {
		goldenChurn(t, s, stage)
		caps := make([]float64, s.NumHelpers())
		for j := range caps {
			p := s.HelperProcess(j)
			p.Step()
			caps[j] = s.HelperLevels(j)[p.State()]
		}
		if _, _, err := s.SelectStage(); err != nil {
			t.Fatal(err)
		}
		res, err := s.FinishStage(caps)
		if err != nil {
			t.Fatal(err)
		}
		hashStage(h, res)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStageDigest pins every stage of the golden scenarios to a
// committed digest: full and partial views, Workers 0, 1 and 3, mid-run
// peer and helper churn, and one split-phase run. Run-against-run checks
// cannot catch a change that shifts every run the same way; this can.
func TestGoldenStageDigest(t *testing.T) {
	got := map[string]string{"split/views": splitDigest(t)}
	for _, views := range []bool{false, true} {
		for _, workers := range []int{0, 1, 3} {
			name := fmt.Sprintf("full/workers=%d", workers)
			if views {
				name = fmt.Sprintf("views/workers=%d", workers)
			}
			got[name] = stepDigest(t, workers, views)
		}
	}
	for name, want := range goldenStageDigests {
		if got[name] != want {
			t.Errorf("%s: stage digest %s, want %s", name, got[name], want)
		}
	}
	if got["full/workers=0"] != got["full/workers=1"] || got["views/workers=0"] != got["views/workers=1"] {
		t.Error("Workers 0 and 1 realized different trajectories")
	}
}
