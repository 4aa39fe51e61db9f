package core

import (
	"math"
	"testing"

	"rths/internal/regret"
)

// fuzzMaxPeers bounds the population a fuzz input can grow, so every
// input runs in microseconds.
const fuzzMaxPeers = 48

// fuzzCaps advances every helper chain outside the system and returns the
// realized capacities, the way the distributed runtime feeds FinishStage.
func fuzzCaps(s *System) []float64 {
	caps := make([]float64, s.NumHelpers())
	for j := range caps {
		p := s.HelperProcess(j)
		p.Step()
		caps[j] = s.HelperLevels(j)[p.State()]
	}
	return caps
}

// checkStage asserts the stage invariants on a completed stage, and that
// every learner's mixed strategy is a probability vector.
func checkStage(t *testing.T, s *System, res StageResult) {
	t.Helper()
	sum := 0
	for _, l := range res.Loads {
		sum += l
	}
	if sum != s.NumPeers() || len(res.Actions) != s.NumPeers() {
		t.Fatalf("stage %d: loads sum to %d, %d actions, for %d peers", res.Stage, sum, len(res.Actions), s.NumPeers())
	}
	if math.IsNaN(res.Welfare) || math.IsInf(res.Welfare, 0) {
		t.Fatalf("stage %d: welfare %g", res.Stage, res.Welfare)
	}
	if res.Welfare > res.OptWelfare+1e-9 {
		t.Fatalf("stage %d: welfare %g above optimum %g", res.Stage, res.Welfare, res.OptWelfare)
	}
	if math.IsNaN(res.ServerLoad) || res.ServerLoad < 0 || res.ServerLoad < res.MinDeficit-1e-9 {
		t.Fatalf("stage %d: server load %g, min deficit %g", res.Stage, res.ServerLoad, res.MinDeficit)
	}
	for i, r := range res.Rates {
		if math.IsNaN(r) || r < 0 {
			t.Fatalf("stage %d: peer %d rate %g", res.Stage, i, r)
		}
	}
	for i := 0; i < s.NumPeers(); i++ {
		lrn, ok := s.Selector(i).(*regret.Learner)
		if !ok {
			continue
		}
		sum := 0.0
		for _, p := range lrn.Probabilities() {
			if math.IsNaN(p) || p < 0 {
				t.Fatalf("stage %d: peer %d probability %g", res.Stage, i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("stage %d: peer %d probabilities sum to %g", res.Stage, i, sum)
		}
	}
}

// FuzzStageProtocol decodes bytes into a sequence of stage-protocol and
// churn calls on one system and checks that every call either returns an
// error or leaves a system whose stages keep the invariants: loads sum to
// the population, welfare is finite and at most the stage optimum,
// learner probabilities sum to 1, and nothing panics.
//
// data[0] picks the system: bit 0 selects Workers 2 (else 0), bit 1
// partial views (ViewSize 2 of 5 helpers, refreshed every 3 stages; else
// full views of 3 helpers), bits 2-4 the initial population. Every
// following byte pair is one call: the first byte's low three bits pick
// the call, the second byte is its argument.
func FuzzStageProtocol(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 0, 0})
	f.Add([]byte{0x03, 0, 0, 1, 0, 2, 40, 3, 1, 4, 0, 5, 2, 6, 7, 0, 0})
	f.Add([]byte{0x1e, 7, 0, 1, 0, 2, 200, 0, 0, 3, 9, 5, 0, 5, 1, 5, 0, 0, 0})
	f.Add([]byte{0x05, 4, 0, 4, 0, 4, 0, 0, 0, 6, 0x83, 1, 0, 5, 4, 0, 0})
	f.Add([]byte{0x02, 7, 0, 2, 0, 3, 0, 5, 1, 1, 0, 7, 0, 6, 2, 0, 0})
	f.Add([]byte{0x1d, 0, 0, 1, 0, 3, 2, 0, 0, 4, 0, 1, 0})
	f.Add([]byte{0x1f, 0, 0, 0, 0, 0, 0, 1, 0, 5, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head := data[0]
		views := head&2 != 0
		h := 3
		if views {
			h = 5
		}
		cfg := defaultConfig(int(head>>2)&7, h, uint64(head))
		cfg.DemandPerPeer = 500
		cfg.Workers = int(head&1) * 2
		if views {
			cfg.ViewSize = 2
			cfg.ViewRefresh = 3
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := data[1:]
		if len(ops) > 128 {
			ops = ops[:128]
		}
		for len(ops) >= 2 {
			op, arg := ops[0]&7, ops[1]
			ops = ops[2:]
			switch op {
			case 0:
				if res, err := s.Step(); err == nil {
					checkStage(t, s, res)
				}
			case 1:
				// A SelectStage that fails because a stage is already open
				// leaves that stage for FinishStage to complete.
				_, _, _ = s.SelectStage()
				if res, err := s.FinishStage(fuzzCaps(s)); err == nil {
					checkStage(t, s, res)
				}
			case 2:
				if s.NumPeers() < fuzzMaxPeers {
					_, _ = s.AddPeer(nil, float64(int8(arg)))
				}
			case 3:
				_ = s.RemovePeer(int(arg) % (s.NumPeers() + 1))
			case 4:
				spec := DefaultHelperSpec()
				if arg&1 != 0 {
					spec = HelperSpec{Levels: []float64{float64(arg) * 8}, InitState: -1}
				}
				_ = s.AddHelper(spec)
			case 5:
				_ = s.RemoveHelper(int(arg) % (s.NumHelpers() + 1))
			case 6:
				var levels []float64
				for k := 0; k < int(arg>>6); k++ {
					levels = append(levels, float64(int8(arg<<2))*8+float64(100*k))
				}
				_ = s.SetHelperLevels(int(arg&7)%(s.NumHelpers()+1), levels, 0.5)
			case 7:
				// A lone SelectStage opens a stage the following calls see.
				_, _, _ = s.SelectStage()
			}
		}
	})
}
