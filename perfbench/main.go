// Command perfbench is the repository benchmark: it drives the public
// twoldag facade through three workloads (ingest, audit, paper-sim),
// checks the outputs against a simulator oracle, and prints one JSON
// result line. See README.md for the workloads, the metrics and the
// layer -> end-to-end metric -> workload map.
//
// Usage (from the repository root, via run.sh):
//
//	perfbench -workload ingest -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured
// without the tracing observer (paper-sim keeps a two-event audit
// clock, see papersim.go). With -trace 1 the workload runs twice —
// untraced, then with the benchmark's observer and layer replays — and
// the result carries the per-layer metrics, the layer budget and the
// tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds scratch data (WAL directories, replay fixtures, the
	// exact-count ledger); it must lie inside the checkout.
	dir string
	// short shrinks every workload for the self-test.
	short bool
	// corruptOracle flips one expected value of the correctness oracle
	// (self-test only), proving the checks can fail.
	corruptOracle bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	checks            []check
	// e2e and layers are keyed by the names in BENCHMARK.json.
	e2e    map[string]float64
	layers map[string]float64
	// headline holds the workload's named end-to-end figures (the
	// paper- and ROADMAP-facing names, e.g. submit_p50_ms), printed
	// for humans above the result line.
	headline []named
	// budget rows (trace runs): per-operation wall time per layer.
	budget budget
	// counts are exact counts that must repeat for the same seed.
	counts map[string]float64
}

type named struct {
	name  string
	value float64
	unit  string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

type workloadFunc func(cfg runConfig, out *outcome) error

var workloads = map[string]workloadFunc{
	"ingest":    runIngest,
	"audit":     runAudit,
	"paper-sim": runPaperSim,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, audit or paper-sim")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed work per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run with per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory inside the checkout")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its result; the human
// report goes to w.
func run(cfg runConfig, w io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, audit or paper-sim)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	fp, err := fingerprint(scratch)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# fingerprint %s\n", fp)

	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, counts: map[string]float64{}}
	runCfg := cfg
	runCfg.dir = scratch
	if err := fn(runCfg, out); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		drift, err := compareCounts(filepath.Join(cfg.dir, "counts"), cfg, out.counts)
		if err != nil {
			return nil, err
		}
		for _, d := range drift {
			fmt.Fprintf(w, "# NONDETERMINISM %s\n", d)
		}
		out.layers["determinism.drifts"] = float64(len(drift))
	}

	res := &result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, c := range out.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			res.Correct = false
		}
		fmt.Fprintf(w, "# check %-28s %-6s %s\n", c.name, status, c.detail)
	}
	if res.Attempted < 1 {
		res.Correct = false
		fmt.Fprintln(w, "# check attempted              FAILED no operation ran")
	}
	for _, h := range out.headline {
		fmt.Fprintf(w, "# %-10s %-22s %14.6g %s\n", cfg.workload, h.name, h.value, h.unit)
	}
	want, vals := e2eMetrics, out.e2e
	if cfg.trace {
		want, vals = layerMetrics, out.layers
		out.budget.print(w, cfg.workload)
	}
	for _, m := range want {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report metric %s", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: finite(v), Unit: m.unit}
	}
	if extra := unknownKeys(vals, want); len(extra) > 0 {
		return nil, fmt.Errorf("workload %s reported undeclared metrics %s", cfg.workload, strings.Join(extra, ", "))
	}
	return res, nil
}

func unknownKeys(vals map[string]float64, want []metricDef) []string {
	known := map[string]bool{}
	for _, m := range want {
		known[m.name] = true
	}
	var extra []string
	for k := range vals {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}
