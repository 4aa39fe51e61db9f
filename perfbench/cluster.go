package main

import (
	"bytes"
	"fmt"
	"runtime"

	"rths/internal/cluster"
	"rths/internal/distsim"
	"rths/internal/experiment"
	"rths/internal/telemetry"
	"rths/internal/trace"
)

// clusterInputs are the generated inputs of a cluster workload.
type clusterInputs struct {
	scenario experiment.ClusterScenario
	// churn generates the replayed viewer trace (nil: an empty trace).
	churn *trace.ChurnConfig
	// faults replaces the scenario's fault windows (nil: none).
	faults *distsim.FaultPlan
	// operator turns on the operator's telemetry: the metrics registry,
	// rendered once per epoch, and the lifecycle tracer with one series
	// sample per epoch, written to an in-memory sink.
	operator bool
}

// runClusterEpisode builds the scenario's cluster and replays it to the
// horizon through Cluster.ReplayTotals, timing the interval between
// consecutive stage results. With a span log it records spans around each
// call into the program, enables the metrics registry (whose instruments
// only observe) to read the program's counters, and fills ep.layer.
func runClusterEpisode(in clusterInputs, p pass) (ep episode, err error) {
	log := p.log
	traced := log != nil
	ep.traced = traced
	layer := map[string]float64{}
	horizon := in.scenario.Horizon()
	epochStages := in.scenario.EpochStages
	log.reserve(horizon + 4*(horizon/epochStages) + 16)

	t0, c0 := now(), cpuNow()
	root := log.open("episode", 0)

	var cfg cluster.Config
	layer["experiment.build_ms"], err = log.timed("experiment.build", root, func() error {
		var err error
		cfg, err = in.scenario.Build()
		return err
	})
	if err != nil {
		return ep, err
	}
	workload := &trace.Workload{}
	if in.churn != nil {
		layer["trace.generate_ms"], err = log.timed("trace.generate", root, func() error {
			w, err := trace.GenerateChurn(*in.churn)
			if err != nil {
				return err
			}
			w.OffsetPeerIDs(experiment.ChurnIDBase)
			workload = w
			return nil
		})
		if err != nil {
			return ep, err
		}
	}
	if in.faults != nil {
		cfg.Faults = in.faults
	}
	var reg *telemetry.Registry
	if in.operator || traced {
		reg = telemetry.NewRegistry()
		cfg.Metrics = reg
	}
	var sink bytes.Buffer
	var tracer *telemetry.Tracer
	if in.operator {
		tracer = telemetry.NewTracer(&sink)
		cfg.Trace = tracer
		cfg.SeriesEvery = epochStages
	}
	var c *cluster.Cluster
	layer["cluster.new_ms"], err = log.timed("cluster.new", root, func() error {
		var err error
		c, err = cluster.New(cfg)
		return err
	})
	if err != nil {
		return ep, err
	}
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	ep.setupS, ep.setupCPU = float64(now()-t0)/1e9, float64(cpuNow()-c0)/1e9

	dg := newDigest()
	ep.intervalsMs = make([]float64, 0, horizon)
	ep.cpuMs = make([]float64, 0, horizon)
	ep.boundary = make([]bool, 0, horizon)
	var scrape bytes.Buffer
	var traceBytes, cbMallocs, cbBytes uint64
	var heap heapProbe
	var ms runtime.MemStats
	var cbErr error
	runtime.ReadMemStats(&ms)
	mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc

	run := log.open("cluster.run", root)
	runStart, runStartCPU := now(), cpuNow()
	last, lastCPU := runStart, runStartCPU
	err = c.ReplayTotals(workload, horizon, func(t cluster.StageTotals) {
		at, atCPU := now(), cpuNow()
		s := len(ep.intervalsMs)
		ep.intervalsMs = append(ep.intervalsMs, float64(at-last)/1e6)
		ep.cpuMs = append(ep.cpuMs, float64(atCPU-lastCPU)/1e6)
		ep.boundary = append(ep.boundary, s > 0 && s%epochStages == 0)
		log.add("cluster.stage", run, last, at)
		ep.peerStages += float64(t.ActivePeers)
		ep.welfare += t.Welfare
		ep.opt += t.OptWelfare
		ep.played += int64(t.Played)
		ep.stalled += int64(t.Stalled)
		if !finite(t.Welfare, t.OptWelfare, t.ServerLoad, t.MinDeficit) ||
			t.WelfareRatio() > 1+1e-9 || t.Played+t.Stalled != t.ActivePeers {
			ep.failed++
		}
		dg.float(t.Welfare)
		dg.float(t.OptWelfare)
		dg.float(t.ServerLoad)
		dg.float(t.MinDeficit)
		dg.int(t.Played)
		dg.int(t.Stalled)
		dg.int(t.ActivePeers)
		if (s+1)%epochStages == 0 {
			if p.probeHeap {
				heap.sample()
			}
			if in.operator {
				var before runtime.MemStats
				if traced {
					runtime.ReadMemStats(&before)
				}
				s0 := now()
				scrape.Reset()
				if err := reg.WritePrometheus(&scrape); err != nil && cbErr == nil {
					cbErr = err
				}
				s1 := now()
				if err := tracer.Flush(); err != nil && cbErr == nil {
					cbErr = err
				}
				traceBytes += uint64(sink.Len())
				dg.bytes(sink.Bytes())
				sink.Reset()
				s2 := now()
				log.add("telemetry.scrape", run, s0, s1)
				log.add("telemetry.flush", run, s1, s2)
				if traced {
					runtime.ReadMemStats(&ms)
					cbMallocs += ms.Mallocs - before.Mallocs
					cbBytes += ms.TotalAlloc - before.TotalAlloc
				}
			}
		}
		last, lastCPU = now(), cpuNow()
	})
	runEnd, runEndCPU := now(), cpuNow()
	log.close(run)
	if err == nil {
		err = cbErr
	}
	if err != nil {
		return ep, err
	}
	ep.runS, ep.runCPU = float64(runEnd-runStart)/1e9, float64(runEndCPU-runStartCPU)/1e9
	ep.stages = len(ep.intervalsMs)
	ep.peakHeapMB = heap.peakMB()

	if tracer != nil {
		_, err = log.timed("telemetry.flush", root, func() error {
			if err := tracer.Flush(); err != nil {
				return err
			}
			traceBytes += uint64(sink.Len())
			dg.bytes(sink.Bytes())
			return nil
		})
		if err != nil {
			return ep, err
		}
	}
	if traced {
		runtime.ReadMemStats(&ms)
		stages := float64(ep.stages)
		layer["cluster.allocs_per_stage"] = float64(ms.Mallocs-mallocs0-cbMallocs) / stages
		layer["cluster.alloc_bytes_per_stage"] = float64(ms.TotalAlloc-bytes0-cbBytes) / stages
		var counters map[string]float64
		_, err = log.timed("telemetry.scrape", root, func() error {
			scrape.Reset()
			if err := reg.WritePrometheus(&scrape); err != nil {
				return err
			}
			counters = parseProm(scrape.Bytes())
			return nil
		})
		if err != nil {
			return ep, err
		}
		clusterLayers(layer, counters, ep, stages)
		if tracer != nil {
			layer["telemetry.trace_events_per_stage"] = float64(tracer.Events()) / stages
			layer["telemetry.trace_bytes_per_stage"] = float64(traceBytes) / stages
		}
		layer["telemetry.scrape_ms"] = median(append(log.durationsMs("telemetry.scrape", run), log.durationsMs("telemetry.scrape", root)...))
		layer["telemetry.flush_ms"] = median(append(log.durationsMs("telemetry.flush", run), log.durationsMs("telemetry.flush", root)...))
	}
	_, err = log.timed("cluster.close", root, func() error {
		cl := c
		c = nil
		return cl.Close()
	})
	if err != nil {
		return ep, fmt.Errorf("close: %w", err)
	}
	ep.digest = dg.sum()
	ep.wallS, ep.cpuS = float64(now()-t0)/1e9, float64(cpuNow()-c0)/1e9
	if traced {
		log.close(root)
		layer["bench.span_coverage"] = log.coverage(root)
		ep.layer = layer
	}
	return ep, nil
}

// clusterLayers derives the cluster, core and distsim per-layer values of
// a traced episode from its stage intervals and the registry's totals.
func clusterLayers(layer, counters map[string]float64, ep episode, stages float64) {
	var steady, edge []float64
	for s, iv := range ep.intervalsMs {
		if ep.boundary[s] {
			edge = append(edge, iv)
		} else {
			steady = append(steady, iv)
		}
	}
	stageUs := median(steady) * 1e3
	layer["cluster.stage_us"] = stageUs
	if len(edge) > 0 {
		layer["cluster.boundary_us"] = median(edge)*1e3 - stageUs
	}
	// The stage-time histogram yields only a mean, so the director's share
	// is the mean interval (boundaries included: they are director work)
	// minus the mean backend step.
	if n := counters["rths_stage_seconds_count"]; n > 0 {
		backendUs := counters["rths_stage_seconds_sum"] / n * 1e6
		var sum float64
		for _, iv := range ep.intervalsMs {
			sum += iv
		}
		layer["cluster.backend_us"] = backendUs
		layer["cluster.director_us"] = sum/float64(len(ep.intervalsMs))*1e3 - backendUs
	}
	perStage := func(name, counter string) { layer[name] = counters[counter] / stages }
	perStage("cluster.switches_per_stage", "rths_viewer_switches_total")
	perStage("cluster.joins_per_stage", "rths_viewer_joins_total")
	perStage("cluster.leaves_per_stage", "rths_viewer_leaves_total")
	perStage("core.view_swaps_per_stage", "rths_view_swaps_total")
	perStage("distsim.msgs_per_stage", "rths_distsim_msgs_total")
	perStage("distsim.batches_per_stage", "rths_distsim_batches_total")
	perStage("distsim.lost_msgs_per_stage", "rths_distsim_lost_msgs_total")
	perStage("distsim.late_served_per_stage", "rths_distsim_late_served_total")
	perStage("distsim.fault_msgs_per_stage", "rths_distsim_fault_msgs_total")
	layer["distsim.barrier_tax"] = counters["rths_barrier_tax"]
	if epochs := counters["rths_epochs_total"]; epochs > 0 {
		layer["cluster.helper_moves_per_epoch"] = counters["rths_helper_moves_total"] / epochs
		layer["cluster.evicted_per_epoch"] = counters["rths_evicted_helpers_total"] / epochs
		layer["cluster.readmitted_per_epoch"] = counters["rths_readmitted_helpers_total"] / epochs
	}
}
