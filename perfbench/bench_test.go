package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortRun(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	cfg := runConfig{workload: workload, seed: 7, seconds: 1, trace: trace, dir: t.TempDir(), short: true, corruptOracle: corrupt}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// TestEveryDeclaredMetricIsEmitted runs each workload in short mode,
// untraced and traced, and checks that the result carries exactly the
// metrics BENCHMARK.json declares, with their units, and is correct.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w.Name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedOracleFails proves the correctness checks have power:
// one flipped expected value must make each workload incorrect.
func TestCorruptedOracleFails(t *testing.T) {
	for name := range workloads {
		if res := shortRun(t, name, false, true); res.Correct {
			t.Errorf("%s: a corrupted oracle value still gave a correct result", name)
		}
	}
}

// TestExactCountsRepeat runs one traced workload twice with the same
// seed against one count ledger; no count may drift.
func TestExactCountsRepeat(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		cfg := runConfig{workload: "audit", seed: 3, seconds: 1, trace: true, dir: dir, short: true}
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Metrics["determinism.drifts"].Value; d != 0 {
			t.Fatalf("run %d: %v exact counts drifted", i, d)
		}
	}
}
