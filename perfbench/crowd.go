package main

import (
	"errors"
	"fmt"
	"runtime"

	"rths/internal/core"
	"rths/internal/markov"
	"rths/internal/regret"
	"rths/internal/streaming"
	"rths/internal/xrand"
)

// crowdInputs are the generated inputs of the crowd workload: one channel
// driven through core.System directly, without cluster, distsim, churn or
// telemetry.
type crowdInputs struct {
	cfg    core.Config
	stages int
	// bitrate is every viewer's media rate (kbps); each viewer's playout
	// buffer (startup threshold startup stages) turns the realized rates
	// into the continuity metric.
	bitrate, startup float64
	// learnerSeed drives the post-run regret kernel timing.
	learnerSeed uint64
}

// crowdHeapEvery is the heap probe period in stages; the crowd has no
// epochs, so it probes at the cluster workloads' epoch length.
const crowdHeapEvery = 25

// regretBatches is how many timed select and update batches the traced
// pass runs over the resident learners after the stage loop.
const regretBatches = 5

// runCrowdEpisode builds the crowd's core.System and steps it for the
// horizon. Untraced, each stage is one Step call. Traced, each stage is the
// split protocol (advance the helpers' bandwidth processes, SelectStage,
// FinishStage) — the same arithmetic as Step — with a span around each
// phase; after the loop the regret kernel is timed in batches over the
// system's own arena learners.
func runCrowdEpisode(in crowdInputs, p pass) (ep episode, err error) {
	log := p.log
	traced := log != nil
	ep.traced = traced
	layer := map[string]float64{}
	log.reserve(4*in.stages + 2*regretBatches + 16)

	t0, c0 := now(), cpuNow()
	root := log.open("episode", 0)
	var sys *core.System
	layer["core.new_ms"], err = log.timed("core.new", root, func() error {
		var err error
		sys, err = core.New(in.cfg)
		return err
	})
	if err != nil {
		return ep, err
	}
	n := sys.NumPeers()
	bufs := make([]*streaming.Buffer, n)
	_, err = log.timed("streaming.new_buffers", root, func() error {
		for i := range bufs {
			var err error
			if bufs[i], err = streaming.NewBuffer(in.bitrate, in.startup); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ep, err
	}
	var procs []*markov.Process
	var levels [][]float64
	caps := make([]float64, sys.NumHelpers())
	if traced {
		for j := 0; j < sys.NumHelpers(); j++ {
			procs = append(procs, sys.HelperProcess(j))
			levels = append(levels, sys.HelperLevels(j))
		}
	}
	ep.setupS, ep.setupCPU = float64(now()-t0)/1e9, float64(cpuNow()-c0)/1e9

	dg := newDigest()
	ep.intervalsMs = make([]float64, 0, in.stages)
	ep.cpuMs = make([]float64, 0, in.stages)
	var heap heapProbe
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs

	run := log.open("core.run", root)
	runStart, runStartCPU := now(), cpuNow()
	last, lastCPU := runStart, runStartCPU
	for s := 0; s < in.stages; s++ {
		var res core.StageResult
		if traced {
			e0 := now()
			for j, p := range procs {
				p.Step()
				caps[j] = levels[j][p.State()]
			}
			e1 := now()
			if _, _, err := sys.SelectStage(); err != nil {
				return ep, err
			}
			e2 := now()
			if res, err = sys.FinishStage(caps); err != nil {
				return ep, err
			}
			e3 := now()
			log.add("core.env", run, e0, e1)
			log.add("core.select", run, e1, e2)
			log.add("core.finish", run, e2, e3)
		} else if res, err = sys.Step(); err != nil {
			return ep, err
		}
		at, atCPU := now(), cpuNow()
		ep.intervalsMs = append(ep.intervalsMs, float64(at-last)/1e6)
		ep.cpuMs = append(ep.cpuMs, float64(atCPU-lastCPU)/1e6)

		load := 0
		for _, l := range res.Loads {
			load += l
		}
		if !finite(res.Welfare, res.OptWelfare, res.ServerLoad, res.MinDeficit) ||
			res.Welfare > res.OptWelfare*(1+1e-9) || load != n {
			ep.failed++
		}
		ep.welfare += res.Welfare
		ep.opt += res.OptWelfare
		ep.peerStages += float64(n)
		dg.float(res.Welfare)
		dg.float(res.OptWelfare)
		dg.float(res.ServerLoad)
		dg.float(res.MinDeficit)
		for _, l := range res.Loads {
			dg.int(l)
		}
		tick := now()
		for i, b := range bufs {
			ok, err := b.Tick(res.Rates[i])
			if err != nil {
				return ep, err
			}
			if ok {
				ep.played++
			} else {
				ep.stalled++
			}
		}
		log.add("streaming.tick", run, tick, now())
		if p.probeHeap && (s+1)%crowdHeapEvery == 0 {
			heap.sample()
		}
		last, lastCPU = now(), cpuNow()
	}
	runEnd, runEndCPU := now(), cpuNow()
	log.close(run)
	runtime.ReadMemStats(&ms)
	ep.runS, ep.runCPU = float64(runEnd-runStart)/1e9, float64(runEndCPU-runStartCPU)/1e9
	ep.stages = in.stages
	ep.peakHeapMB = heap.peakMB()
	ep.digest = dg.sum()
	ep.wallS, ep.cpuS = float64(now()-t0)/1e9, float64(cpuNow()-c0)/1e9

	if traced {
		stages := float64(in.stages)
		layer["core.allocs_per_stage"] = float64(ms.Mallocs-mallocs0) / stages
		layer["core.env_us"] = median(log.durationsMs("core.env", run)) * 1e3
		layer["core.select_us"] = median(log.durationsMs("core.select", run)) * 1e3
		layer["core.feedback_us"] = median(log.durationsMs("core.finish", run)) * 1e3
		arena := sys.LearnerArena()
		layer["regret.arena_mb"] = float64(arena.Len()*arena.SlotBytes()) / 1e6
		sel, upd, err := timeLearners(sys, arena, in.learnerSeed, log, root)
		if err != nil {
			return ep, err
		}
		layer["regret.select_ns"] = sel
		layer["regret.update_ns"] = upd
		log.close(root)
		layer["bench.span_coverage"] = log.coverage(root)
		ep.layer = layer
	}
	return ep, nil
}

// timeLearners times Select and Update in batches over every resident
// arena learner of sys, returning the median per-call cost of each in ns.
// It mutates the learners, so it runs only after the episode's digest.
func timeLearners(sys *core.System, arena *regret.Arena, seed uint64, log *spanLog, root int) (selectNs, updateNs float64, err error) {
	var ls []*regret.Learner
	for i := 0; i < sys.NumPeers(); i++ {
		if l, ok := sys.Selector(i).(*regret.Learner); ok && arena.Contains(l) {
			ls = append(ls, l)
		}
	}
	if len(ls) == 0 {
		return 0, 0, errors.New("crowd: no arena-resident learners")
	}
	rng := xrand.New(seed)
	acts := make([]int, len(ls))
	var sel, upd []float64
	for b := 0; b < regretBatches; b++ {
		s0 := now()
		for i, l := range ls {
			acts[i] = l.Select(rng)
		}
		s1 := now()
		for i, l := range ls {
			if err := l.Update(acts[i], 0.5); err != nil {
				return 0, 0, fmt.Errorf("crowd: learner %d update: %w", i, err)
			}
		}
		s2 := now()
		log.add("regret.select_batch", root, s0, s1)
		log.add("regret.update_batch", root, s1, s2)
		sel = append(sel, float64(s1-s0)/float64(len(ls)))
		upd = append(upd, float64(s2-s1)/float64(len(ls)))
	}
	return median(sel), median(upd), nil
}
