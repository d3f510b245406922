// Command e2ebench is the repository's end-to-end benchmark. It builds one
// workload's world from the workload's fixed world seed, drives it through
// the real stack with request streams generated from --seed, and checks
// every outcome against the generator's own model:
//
//	query_planning, browse_cold, governed_writes: catalog.Service behind
//	server.Server on a loopback http.Server, driven over two keep-alive
//	connections;
//	multi_table_commit: two writers committing through the embedded
//	txn coordinator (uc.Catalog.NewTransactionCoordinator).
//
// Each run measures an open-loop phase at the workload's fixed offered rate
// (latency, timed from when each op was due), then a closed-loop phase
// (throughput). With --trace 1 it instead reports per-layer numbers:
// counters read around an untraced phase, and a traced phase that prices a
// deterministic sample of ops at each layer boundary from outside.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload query_planning --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it is the full report with the environment record.
// Workload shapes live in workloads.json; `go test` in this directory runs
// every workload at a tiny size as a smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed    int64
	seconds float64
	trace   bool
	// root is the directory for WAL files; it is removed afterwards.
	root string
	// spansDir receives the traced run's spans.
	spansDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run produced. Metrics are the figures the final line
// carries for the run's mode; Extra holds the remaining report figures.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"-"`
	Errors    []string          `json:"-"`
	Loopback  bool              `json:"-"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) extra(name, unit string, v float64) {
	if r.Extra == nil {
		r.Extra = map[string]metric{}
	}
	r.Extra[name] = metric{Value: v, Unit: unit}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs, names, err := loadSpecs()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sp, ok := specs[*name]
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; have %v\n", *name, names)
		return 2
	}
	root, err := os.MkdirTemp(".bench_build", "e2e-")
	if err != nil {
		if err = os.MkdirAll(".bench_build", 0o755); err == nil {
			root, err = os.MkdirTemp(".bench_build", "e2e-")
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(root)
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: root, spansDir: ".bench_build"}
	cpu0 := readCPUTimes()
	res, err := runWorkload(sp, opt)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", sp.Name, err)
		return 1
	}
	printResult(stdout, sp, opt, res, newEnvelope(res.Loopback, cpu0))
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "unexpected outcome:", e)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(sp spec, opt options) (*result, error) {
	if sp.World == "delta" {
		return runCommit(sp, opt)
	}
	return runREST(sp, opt)
}

// printResult writes one human-readable line per metric, the full report
// with its environment record, and last the result line.
func printResult(out io.Writer, sp spec, opt options, res *result, env envelope) {
	all := map[string]metric{}
	for k, v := range res.Extra {
		all[k] = v
	}
	for k, v := range res.Metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	report := map[string]any{
		"workload": sp.Name, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"env": env, "spec": sp, "metrics": all,
		"attempted": res.Attempted, "failed": res.Failed, "correct": res.Correct,
	}
	b, _ := json.Marshal(map[string]any{"report": report})
	fmt.Fprintln(out, string(b))
	b, _ = json.Marshal(res)
	fmt.Fprintln(out, string(b))
}

// buildTimed builds the world sp.Setups times, each in a fresh directory,
// and keeps the last; setup_s is the median build time.
func buildTimed[W interface{ close() error }](sp spec, opt options, build func(dir string) (W, error)) (W, float64, error) {
	var (
		w     W
		times []float64
	)
	n := max(sp.Setups, 1)
	if opt.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		dir := filepath.Join(opt.root, fmt.Sprintf("world%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return w, 0, err
		}
		// Each build starts from a collected heap, so it is not charged for
		// collecting the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		nw, err := build(dir)
		if err != nil {
			return w, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			if err := nw.close(); err != nil {
				return w, 0, err
			}
			os.RemoveAll(dir)
			continue
		}
		w = nw
	}
	return w, median(times), nil
}

// phaseSplit divides the measured seconds evenly. The open loop runs
// first: it does a fixed amount of work, so the heap is measured after it
// and the closed loop always starts from the same state, whatever the
// speed of the machine.
func phaseSplit(seconds float64) (closed, open time.Duration) {
	d := time.Duration(seconds * float64(time.Second))
	return d / 2, d / 2
}

// addLatency reports the open loop's latency figures: the all-op median
// (the gated figure) and tail, windowed (see phase.windowed), and the
// read/write split where the workload has both.
func addLatency(res *result, open *phase) {
	res.set("latency_p50_us", "us", open.windowed(0.50))
	res.extra("latency_p90_us", "us", open.windowed(0.90))
	res.extra("latency_p99_us", "us", open.windowed(0.99))
	res.extra("latency_samples", "count", float64(len(open.samples)))
	if reads := open.latencies(true, false); len(reads) > 0 {
		res.extra("read_p50_us", "us", quantile(reads, 0.50))
		res.extra("read_p99_us", "us", quantile(reads, 0.99))
		res.extra("read_samples", "count", float64(len(reads)))
	}
	if writes := open.latencies(false, true); len(writes) > 0 {
		res.extra("write_p50_us", "us", quantile(writes, 0.50))
		res.extra("write_p99_us", "us", quantile(writes, 0.99))
		res.extra("write_samples", "count", float64(len(writes)))
	}
	res.extra("loadgen.late_p50_us", "us", quantile(open.late, 0.50))
	res.extra("loadgen.late_p99_us", "us", quantile(open.late, 0.99))
}

// measureHeap reports the live heap after the warm-up and the open loop,
// which do a fixed amount of work, once the phases' own samples are
// released: the figure is the program's memory, not the generator's.
func measureHeap(res *result, phases ...*phase) {
	for _, p := range phases {
		p.samples, p.late = nil, nil
	}
	res.set("heap_mb", "MB", heapMB())
}

// finish fills the outcome counts shared by every mode.
func finish(res *result, phases ...*phase) {
	for _, p := range phases {
		res.Attempted += p.ok + p.failed
		res.Failed += p.failed
		res.Errors = append(res.Errors, p.errs...)
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	res.extra("error_rate", "fraction", ratio(float64(res.Failed), float64(res.Attempted)))
	res.extra("checks.outcomes", "count", float64(res.Attempted))
}

// readBackCount reports how many read-back checks a verification phase made.
func readBackCount(res *result, p *phase) *phase {
	res.extra("checks.read_back", "count", float64(p.ok+p.failed))
	return p
}
