// Command perfbench is the repository's benchmark. One command runs a
// workload of the simulator end to end, checks its outputs, and prints
// either the end-to-end metrics (--trace 0) or the per-layer split of a
// traced pass (--trace 1). BENCHMARK.json at the repository root declares
// the workloads, the metrics and their bounds; run.sh builds this package
// from the checkout's sources and runs it, from the repository root:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is the result, {"correct", "attempted",
// "failed", "metrics"}. The line before it records what ran and where: the
// Go version, GOMAXPROCS, the CPU count and model, the L2 and L3 sizes, the
// seed, the episode count and the run's digest.
//
// # Runs and episodes
//
// The seed generates the workload's inputs (scenario config, churn trace,
// fault plan); the program receives nothing else. A run executes one
// warm-up episode, then repeats complete episodes (set-up, stage loop,
// output) on the same inputs until --seconds are spent, and reports
// medians across the measured episodes. The warm-up takes the process's
// one-time costs (heap growth, first-touch page faults) out of the
// measured episodes; set-up is still paid and timed in every episode.
// All load comes from this one process. GOMAXPROCS stays at the CPU count
// and no Workers setting exceeds 2.
//
// Every episode is checked, the warm-up included. A stage fails when any
// of its totals is not finite, its welfare exceeds the stage optimum by
// more than 1e-9 relatively, Played+Stalled differs from the active
// audience (cluster workloads), or the helper loads do not sum to the
// audience (crowd). Each episode also hashes its per-stage deterministic
// totals (on faults, its lifecycle trace too) into a SHA-256 digest, and a
// run is correct only when every episode's digest, traced or not, is the
// same.
//
// # Workloads
//
// scale is the ClusterScale shape on the memory backend with channel
// Workers=2: 100 Zipf channels, 10k viewers plus a 500-viewer flash crowd,
// 400 helpers, greedy re-allocation every 25 stages and 2%/stage Markov
// zapping. It is the paper's multi-channel setting at the size users run,
// and the only workload on channel-level fan-out. Its cost splits between
// the regret kernel (Select/Update), the cluster zapping pass (viewer
// moves through RemovePeer/AddPeer) and the epoch boundaries, which take
// two to three times a normal stage.
//
// crowd is one channel of 20,000 viewers on 16 helpers driven through
// core.System directly, with core Workers=2. It is the only path into
// core's peer-level sharding and the only cache-bound kernel regime: its
// learner arena holds about 51 MB of slots (Arena.Len × Arena.SlotBytes),
// many times a core's L2 (2 MiB on the Xeon this was sized on) and inside
// that machine's shared 300 MiB L3. Its timings therefore depend on the
// cache hierarchy and on what else shares the L3: compare them only
// between runs on the same machine, and expect a box whose L3 is smaller
// than the arena to be DRAM-bound. It bypasses cluster, distsim, churn and
// telemetry. Each viewer's playout buffer turns the realized rates into
// the continuity metric.
//
// views-churn is 4 channels with deep pools (128 helpers), ViewSize=8
// refreshed every 25 stages, 1,000 resident viewers and a generated
// Poisson/Zipf churn trace (10 arrivals per stage, mean session 200
// stages) that turns its audience over about five times per episode; memory
// backend, sequential. It uses the regret and core layers by mutating
// them — arena adopt/discard compaction, AddAction/RemoveAction view
// repacks, view sampling, the join/leave seams, trace generation and
// replay — so a gain for steady-state stepping that costs churn shows
// here.
//
// faults is the ClusterFaults shape on distsim: lossy queueing links,
// 3 fault domains and the failure detector, with a helper crash every 100
// stages and a partition every 200 stages across the whole horizon. The
// operator's telemetry is on: the metrics registry is rendered with
// WritePrometheus once per epoch, and the lifecycle tracer with series
// samples writes to an in-memory sink. It is the only workload through
// distsim node messaging, the failure detector and telemetry; its small
// population keeps regret minor, so a kernel speed-up should not move it.
//
// # End-to-end metrics
//
// Times are process CPU time (all threads, user and system, read from the
// kernel's CPU clock). On the shared host the benchmark was tuned on, the
// hypervisor steals vCPU time in phases that last minutes: during one,
// wall-clock stage times rose 2.5-fold and ten-run spreads reached 50-130%,
// while the CPU clock leaves stolen time out. The wall-clock figures are
// reported per layer (wall.*), from the untraced episodes of a traced run.
//
// Every metric is a median over the measured episodes. setup_s is an
// episode's set-up: scenario build, trace generation and runtime
// construction. cpu_s is an episode's set-up, stage loop and output
// together. peer_stages_per_cpu_s is Σ active viewers over stages divided
// by the stage loop's CPU time. stage_cpu_ms_p50 and stage_cpu_ms_p99 are
// an episode's quantiles of the CPU time between consecutive stage results
// (300 to 2,000 stages an episode); the median across episodes keeps a
// burst of host noise in one episode out of the run's p99. Cluster
// workloads take the stage results from
// Cluster.ReplayTotals, whose trajectory is that of Run/Replay (an empty
// trace stands in where there is no churn), and epoch-boundary stalls land
// in p99. With Workers=2 a stage's CPU time counts both workers, and the
// scheduler's spinning while goroutines hand off work counts too. The
// benchmark's own per-epoch work (heap probes, the operator's scrape and
// flush) is left out of the stage times and counted in cpu_s.
// peak_heap_mb is the largest HeapInuse right after a forced collection,
// probed once per epoch in the warm-up episode only (its timings are not
// used), so it is the heap the live state occupies, free of collector
// timing. welfare_ratio is Σwelfare/Σoptimum and continuity is
// played/(played+stalled) over the run; both repeat exactly for a fixed
// seed, so a speed-up that degrades the algorithm shows there.
//
// # Per-layer metrics
//
// A traced run records spans — name, start, end, parent, and a run-wide
// trace id — in memory around the benchmark's calls into each module, and
// writes them to .bench_build/spans/<workload>-seed<n>.jsonl when the run
// ends. Counts come from counters the program already has (the cluster's
// metrics registry, Tracer.Events, Arena sizes, runtime.MemStats); the
// registry only observes, so enabling it leaves every digest unchanged.
// A workload that does not cross a boundary reports 0 for its metrics.
// Each entry names the end-to-end metric it should move, and where:
//
//   - experiment.build_ms, trace.generate_ms, cluster.new_ms, core.new_ms:
//     setup_s, on the workloads that call each.
//   - cluster.stage_us (median non-boundary stage interval),
//     cluster.backend_us (mean of the rths_stage_seconds histogram) and
//     cluster.director_us (mean stage interval minus backend_us):
//     stage_cpu_ms_p50 and peer_stages_per_cpu_s on scale and views-churn.
//   - cluster.boundary_us (median boundary interval minus stage_us) and
//     cluster.helper_moves_per_epoch: stage_cpu_ms_p99 on scale.
//   - cluster.switches_per_stage, cluster.joins_per_stage,
//     cluster.leaves_per_stage: peer_stages_per_cpu_s on scale and views-churn.
//   - cluster.allocs_per_stage, cluster.alloc_bytes_per_stage:
//     stage_cpu_ms_p99 and peak_heap_mb on the cluster workloads.
//   - core.env_us, core.select_us, core.feedback_us: stage_cpu_ms_p50 and
//     peer_stages_per_cpu_s on crowd, whose traced pass drives the split
//     protocol (advance the helpers' processes, SelectStage, FinishStage)
//     — the arithmetic of Step, as the digests confirm.
//   - core.allocs_per_stage: stage_cpu_ms_p99 on crowd.
//     core.view_swaps_per_stage: peer_stages_per_cpu_s on views-churn.
//   - regret.select_ns, regret.update_ns, timed in batches over crowd's
//     own arena learners after its stage loop: peer_stages_per_cpu_s on crowd
//     and scale, and nothing on faults. regret.arena_mb: peak_heap_mb on
//     crowd.
//   - distsim.msgs_per_stage, distsim.batches_per_stage,
//     distsim.lost_msgs_per_stage, distsim.late_served_per_stage,
//     distsim.fault_msgs_per_stage, distsim.barrier_tax: stage_cpu_ms_p50 on
//     faults. cluster.evicted_per_epoch and cluster.readmitted_per_epoch
//     show that its fault windows fire.
//   - telemetry.scrape_ms (a span around WritePrometheus),
//     telemetry.flush_ms, telemetry.trace_events_per_stage,
//     telemetry.trace_bytes_per_stage: cpu_s on faults.
//   - wall.setup_s, wall.episode_s, wall.peer_stages_per_s,
//     wall.stage_ms_p50 and wall.stage_ms_p99 are the wall-clock
//     counterparts of the end-to-end metrics: what a user waits, stolen
//     time included.
//   - bench.trace_overhead_pct is the traced against the untraced median
//     stage CPU time; bench.span_coverage is the share of a traced
//     episode's wall time covered by leaf spans.
//
// # Run lengths and bounds
//
// Episode horizons were sized from measured stage costs on a 2-vCPU Xeon
// (Go 1.24.0). Per stage, in wall-clock and CPU time: scale runs 24 epochs
// of 600 stages at about 6 and 8 ms (4 s an episode), crowd 300 stages at
// about 5 and 10 ms (1.5 s), views-churn 50 epochs of 1,000 stages at
// about 1.8 ms either way, and faults 100 epochs of 2,000 stages at about
// 0.2 and 0.32 ms. A 24 s run therefore holds 5 to 50 episodes and 3,000
// or more stage samples. On that host the cores also run slower for
// minutes at a time, which CPU time does not hide: whole runs of scale and
// crowd moved by 10-25% in CPU time, and peak heap differs by about 15%
// from seed to seed, which is why those bounds in BENCHMARK.json are 0.25.
// spread.py, which checks the spreads across seeds, interleaves the
// workloads so that drift of the host spreads over all of them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceMode := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traceMode)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds %g: want > 0", *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	traced := *traceMode == 1
	warmup, eps, log, err := measure(w, *seed, *seconds, traced)
	if err != nil {
		return err
	}
	res, info := summarize(warmup, eps, traced)
	info.Workload, info.Seed, info.Trace = w.name, *seed, *traceMode
	info.Machine = readMachine()
	if traced {
		info.Spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := log.writeFile(info.Spans); err != nil {
			return err
		}
	}
	for _, d := range info.Mismatch {
		fmt.Fprintln(stderr, "perfbench: digest mismatch:", d)
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// measure runs one warm-up episode, then repeats episodes of the workload
// on the seed's inputs until the measurement time is spent (the last
// episode may run past it by at most half an episode). The warm-up takes
// the process's one-time costs — heap growth from the OS, first-touch page
// faults — out of the measured episodes; its outputs are still checked.
// Traced runs interleave traced and untraced episodes in the order
// T U U T T U U T …, so tracing overhead is measured against untraced
// stages from the same stretch of time and linear drift cancels.
func measure(w workload, seed uint64, seconds float64, traced bool) (warmup episode, eps []episode, log *spanLog, err error) {
	if traced {
		log = newSpanLog(fmt.Sprintf("%s-%d-%x", w.name, seed, time.Now().UnixNano()))
	}
	// Each episode starts from a collected heap, so one episode's garbage
	// neither inflates the next one's heap nor lands as a collection inside
	// its timed stages.
	runtime.GC()
	if warmup, err = w.episode(seed, pass{probeHeap: true}); err != nil {
		return warmup, nil, nil, fmt.Errorf("%s warm-up episode: %w", w.name, err)
	}
	deadline := now() + int64(seconds*1e9)
	for k := 0; ; k++ {
		runtime.GC()
		var p pass
		if traced && (k%4 == 0 || k%4 == 3) {
			p.log = log
		}
		start := now()
		ep, err := w.episode(seed, p)
		if err != nil {
			return warmup, nil, nil, fmt.Errorf("%s episode %d: %w", w.name, k, err)
		}
		eps = append(eps, ep)
		took := now() - start
		done := !traced || k >= 1
		if done && now()+took/2 > deadline {
			return warmup, eps, log, nil
		}
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is the line before the result: what ran, on which machine, and
// the evidence behind the correct flag and the metrics.
type runInfo struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	// Episodes summarizes the measured episodes in run order; the warm-up
	// comes on top.
	Episodes     []episodeInfo `json:"episodes"`
	StageSamples int           `json:"stage_samples"`
	Digest       string        `json:"digest"`
	Mismatch     []string      `json:"digest_mismatch,omitempty"`
	Spans        string        `json:"spans,omitempty"`
	Machine      machine       `json:"machine"`
}

// episodeInfo summarizes one measured episode: CPU time first, then the
// wall-clock figures, whose gap shows how much the host stole.
type episodeInfo struct {
	Traced        bool    `json:"traced"`
	SetupS        float64 `json:"setup_s"`
	CPUS          float64 `json:"cpu_s"`
	StageCPUMsP50 float64 `json:"stage_cpu_ms_p50"`
	StageCPUMsP99 float64 `json:"stage_cpu_ms_p99"`
	WallS         float64 `json:"wall_s"`
	StageMsP50    float64 `json:"stage_ms_p50"`
	StageMsP99    float64 `json:"stage_ms_p99"`
}

// summarize checks every episode's outputs, the warm-up's included, and
// reduces the measured episodes to the run's metrics: end-to-end from the
// untraced episodes, per-layer from the traced ones.
func summarize(warmup episode, eps []episode, traced bool) (result, runInfo) {
	res := result{Correct: true, Metrics: map[string]value{}}
	info := runInfo{Digest: warmup.digest}
	var setup, setupWall, cpu, wall, rate, rateWall []float64
	var cpuP50, cpuP99, wallP50, wallP99, tracedCPUP50 []float64
	var layers []map[string]float64
	for i, ep := range append([]episode{warmup}, eps...) {
		res.Attempted += ep.stages
		res.Failed += ep.failed
		if ep.digest != info.Digest {
			info.Mismatch = append(info.Mismatch, fmt.Sprintf("episode %d: %s != %s", i, ep.digest, info.Digest))
		}
		if i == 0 {
			continue
		}
		info.Episodes = append(info.Episodes, episodeInfo{
			Traced:        ep.traced,
			SetupS:        ep.setupCPU,
			CPUS:          ep.cpuS,
			StageCPUMsP50: quantile(ep.cpuMs, 0.5),
			StageCPUMsP99: quantile(ep.cpuMs, 0.99),
			WallS:         ep.wallS,
			StageMsP50:    quantile(ep.intervalsMs, 0.5),
			StageMsP99:    quantile(ep.intervalsMs, 0.99),
		})
		if ep.traced {
			tracedCPUP50 = append(tracedCPUP50, info.Episodes[len(info.Episodes)-1].StageCPUMsP50)
			layers = append(layers, ep.layer)
			continue
		}
		e := info.Episodes[len(info.Episodes)-1]
		setup = append(setup, ep.setupCPU)
		setupWall = append(setupWall, ep.setupS)
		cpu = append(cpu, ep.cpuS)
		wall = append(wall, ep.wallS)
		rate = append(rate, ep.peerStages/ep.runCPU)
		rateWall = append(rateWall, ep.peerStages/ep.runS)
		cpuP50 = append(cpuP50, e.StageCPUMsP50)
		cpuP99 = append(cpuP99, e.StageCPUMsP99)
		wallP50 = append(wallP50, e.StageMsP50)
		wallP99 = append(wallP99, e.StageMsP99)
		info.StageSamples += len(ep.cpuMs)
	}
	res.Correct = res.Failed == 0 && len(info.Mismatch) == 0
	vals := map[string]float64{}
	metrics := endToEndMetrics
	if traced {
		metrics = perLayerMetrics
		// A layer an episode did not measure reads 0: the workload does
		// not cross that boundary.
		for _, m := range perLayerMetrics {
			xs := make([]float64, len(layers))
			for i, l := range layers {
				xs[i] = l[m.name]
			}
			vals[m.name] = median(xs)
		}
		vals["wall.setup_s"] = median(setupWall)
		vals["wall.episode_s"] = median(wall)
		vals["wall.peer_stages_per_s"] = median(rateWall)
		vals["wall.stage_ms_p50"] = median(wallP50)
		vals["wall.stage_ms_p99"] = median(wallP99)
		base := median(cpuP50)
		vals["bench.trace_overhead_pct"] = (median(tracedCPUP50) - base) / base * 100
	} else {
		vals["setup_s"] = median(setup)
		vals["cpu_s"] = median(cpu)
		vals["peer_stages_per_cpu_s"] = median(rate)
		vals["stage_cpu_ms_p50"] = median(cpuP50)
		vals["stage_cpu_ms_p99"] = median(cpuP99)
		vals["peak_heap_mb"] = warmup.peakHeapMB
		vals["welfare_ratio"] = warmup.welfare / warmup.opt
		vals["continuity"] = float64(warmup.played) / float64(warmup.played+warmup.stalled)
	}
	for _, m := range metrics {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	return res, info
}

// machine records where a result was measured.
type machine struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
}

func readMachine() machine {
	m := machine{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		L2:         "unknown",
		L3:         "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err := errors.Join(err1, err2); err != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			m.L2 = strings.TrimSpace(string(size))
		case "3":
			m.L3 = strings.TrimSpace(string(size))
		}
	}
	return m
}
