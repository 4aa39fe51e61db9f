package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shortWorkloads are the benchmark's workloads at test-sized horizons.
var shortWorkloads = []struct {
	name    string
	episode func(seed uint64, p pass) (episode, error)
}{
	{"scale", func(seed uint64, p pass) (episode, error) {
		return runClusterEpisode(scaleInputs(seed, 3, 2), p)
	}},
	{"crowd", func(seed uint64, p pass) (episode, error) {
		return runCrowdEpisode(crowdInputsFor(seed, 30), p)
	}},
	{"views-churn", func(seed uint64, p pass) (episode, error) {
		return runClusterEpisode(viewsChurnInputs(seed, 4), p)
	}},
	{"faults", func(seed uint64, p pass) (episode, error) {
		return runClusterEpisode(faultsInputs(seed, 12), p)
	}},
}

func TestShortRunsPassChecksAndTracingDoesNotPerturb(t *testing.T) {
	for _, w := range shortWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := w.episode(3, pass{})
			if err != nil {
				t.Fatal(err)
			}
			again, err := w.episode(3, pass{})
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.episode(3, pass{log: newSpanLog("test"), probeHeap: true})
			if err != nil {
				t.Fatal(err)
			}
			other, err := w.episode(4, pass{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range []episode{plain, again, traced, other} {
				if ep.failed != 0 || ep.stages == 0 {
					t.Fatalf("%d of %d stages failed the output checks", ep.failed, ep.stages)
				}
			}
			if again.digest != plain.digest {
				t.Errorf("same seed, different digests: %s vs %s", again.digest, plain.digest)
			}
			if traced.digest != plain.digest {
				t.Errorf("traced digest %s != untraced %s", traced.digest, plain.digest)
			}
			if other.digest == plain.digest {
				t.Errorf("seeds 3 and 4 gave the same digest")
			}
			if traced.layer["bench.span_coverage"] <= 0.5 {
				t.Errorf("span coverage %g", traced.layer["bench.span_coverage"])
			}
		})
	}
}

func TestScaleWorkersMatchSequential(t *testing.T) {
	par, err := runClusterEpisode(scaleInputs(5, 3, 2), pass{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runClusterEpisode(scaleInputs(5, 3, 0), pass{})
	if err != nil {
		t.Fatal(err)
	}
	if par.digest != seq.digest {
		t.Fatalf("Workers=2 digest %s != Workers=0 digest %s", par.digest, seq.digest)
	}
}

func TestFaultsWindowsFire(t *testing.T) {
	ep, err := runClusterEpisode(faultsInputs(1, 12), pass{log: newSpanLog("test")})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"cluster.evicted_per_epoch",
		"cluster.readmitted_per_epoch",
		"distsim.late_served_per_stage",
		"distsim.fault_msgs_per_stage",
		"telemetry.trace_events_per_stage",
	} {
		if ep.layer[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, ep.layer[name])
		}
	}
}

func TestRunPrintsContractResult(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, mode := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "faults", "--seed", "2", "--seconds", "0.01", "--trace", mode}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("trace %s: %v (%s)", mode, err, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 {
			t.Fatalf("result keys %v", res)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("trace %s: %+v", mode, r)
		}
		want := endToEndMetrics
		if mode == "1" {
			want = perLayerMetrics
		}
		if len(r.Metrics) != len(want) {
			t.Fatalf("trace %s: %d metrics, want %d", mode, len(r.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := r.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v", mode, m.name, got)
			}
		}
		if mode == "0" {
			for _, m := range want {
				if r.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.name, r.Metrics[m.name].Value)
				}
			}
		}
	}
	if _, err := os.Stat(".bench_build/spans/faults-seed2.jsonl"); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "faults", "--trace", "2"},
		{"--workload", "faults", "--seconds", "0"},
		{"--workload", "faults", "extra"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("%q: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q", args, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v vs %s", i, w, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) || len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ")
	}
	for i, m := range spec.EndToEnd {
		g := endToEndMetrics[i]
		if m.Name != g.name || m.Unit != g.unit || m.Better != g.better || m.Bound != g.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, g)
		}
	}
	for i, m := range spec.PerLayer {
		g := perLayerMetrics[i]
		if m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, g)
		}
	}
}
