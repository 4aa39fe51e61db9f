package main

import "runtime"

// pass selects what an episode records besides its timings and outputs.
type pass struct {
	// log, when non-nil, makes the episode traced: spans around each call
	// into the program, and the per-layer values in episode.layer.
	log *spanLog
	// probeHeap forces a collection at every heap sample, so peakHeapMB is
	// the heap the program's live state occupies, free of collector
	// timing. Only the warm-up episode probes: its timings are not used.
	probeHeap bool
}

// heapProbe records the peak HeapInuse right after forced collections.
type heapProbe struct {
	ms   runtime.MemStats
	peak uint64
}

func (h *heapProbe) sample() {
	runtime.GC()
	runtime.ReadMemStats(&h.ms)
	h.peak = max(h.peak, h.ms.HeapInuse)
}

func (h *heapProbe) peakMB() float64 { return float64(h.peak) / 1e6 }

// episode is one complete, timed pass of a workload: set-up, the stage
// loop, and output. A run repeats episodes on identical inputs until its
// time is up, so every episode of a run must produce the same digest.
type episode struct {
	traced bool

	// Wall-clock and process CPU seconds of the set-up (scenario build,
	// trace generation, runtime construction), of the stage loop alone, and
	// of the whole episode (set-up, stage loop and output).
	setupS, setupCPU float64
	runS, runCPU     float64
	wallS, cpuS      float64

	stages     int
	peerStages float64 // Σ active viewers over stages
	// intervalsMs[s] and cpuMs[s] are the wall-clock and CPU time between
	// stage s-1's result and stage s's, without the benchmark's own
	// per-epoch work. boundary[s] marks the intervals that also hold the
	// previous epoch's re-allocation.
	intervalsMs []float64
	cpuMs       []float64
	boundary    []bool
	// peakHeapMB is set by heap-probing episodes only.
	peakHeapMB float64

	welfare, opt    float64
	played, stalled int64
	// failed counts stages whose outputs broke an output check.
	failed int
	digest string

	// layer holds the per-layer values of a traced episode.
	layer map[string]float64
}
