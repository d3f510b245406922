package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the subset of the repository's BENCHMARK.json the smoke
// test cross-checks against the program.
type benchmarkFile struct {
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

// tiny shrinks a workload so a run takes about a second.
func tiny(sp spec) spec {
	sp.Setups = 1
	sp.WarmupOps = 10
	if sp.WarmupEvents > 0 {
		sp.WarmupEvents = 1 // the event-bus warm-up path still runs
	}
	if sp.World == "large" {
		sp.LargeTables, sp.LargeSchemas, sp.Tagged = 600, 6, 60
	}
	if sp.World == "delta" {
		sp.Tables = 6
	}
	return sp
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and that its correctness checks ran.
func TestSmoke(t *testing.T) {
	specs, names, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, w := range bf.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which workloads.json lacks", w.Name)
		}
		gated[w.Name] = true
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			opt := options{seed: 1, seconds: 0.6, trace: trace, root: t.TempDir(), spansDir: t.TempDir()}
			res, err := runWorkload(tiny(specs[name]), opt)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: emitted %v, want %d metrics", name, trace, sortedKeys(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if res.Attempted == 0 || res.Extra["checks.outcomes"].Value == 0 {
				t.Errorf("%s trace=%t: no outcome was checked", name, trace)
			}
			if specs[name].Mix["write"] > 0 || specs[name].World == "delta" {
				if res.Extra["checks.read_back"].Value == 0 {
					t.Errorf("%s trace=%t: no acknowledged write was read back", name, trace)
				}
			}
			if gated[name] && !res.Correct {
				t.Errorf("%s trace=%t: %d of %d outcomes unexpected: %v", name, trace, res.Failed, res.Attempted, res.Errors)
			} else if !res.Correct {
				t.Logf("%s trace=%t (not in BENCHMARK.json): %d of %d outcomes unexpected, e.g. %v",
					name, trace, res.Failed, res.Attempted, res.Errors[:min(1, len(res.Errors))])
			}
		}
	}
}
