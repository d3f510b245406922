package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json is the single record of every workload's shape: why it
// exists, its sizes, injected latency, fsync policy and offered rate. The
// program reads its parameters from it, so the record cannot drift from
// what runs.
//
//go:embed workloads.json
var workloadsJSON []byte

// spec is one workload's entry in workloads.json.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// World is "section61" (workload.Generate defaults), "large" (a flat
	// metastore built by batched direct commits) or "delta" (governed
	// Delta tables for the commit coordinator).
	World string `json:"world"`
	// Population, WorkingSet and OfferedRateBasis describe the world's
	// sizes and where the offered rate came from; the program does not
	// read them.
	Population       string `json:"population"`
	WorkingSet       string `json:"working_set"`
	OfferedRateBasis string `json:"offered_rate_basis"`
	// LargeTables, LargeSchemas and Tagged size the "large" world.
	LargeTables  int `json:"large_tables,omitempty"`
	LargeSchemas int `json:"large_schemas,omitempty"`
	Tagged       int `json:"tagged,omitempty"`
	// CacheCap bounds cached records per metastore (0: the program default).
	CacheCap int `json:"cache_cap"`
	// ReadLatencyUS is the injected remote-DB round trip per store read.
	ReadLatencyUS int `json:"read_latency_us"`
	// Fsync is "none" (in-memory store) or "batch" (durable WAL, one fsync
	// per group-commit batch, on the local disk).
	Fsync string  `json:"fsync"`
	Zipf  float64 `json:"zipf_s"`
	// Mix maps an op kind to its share of requests.
	Mix map[string]float64 `json:"mix"`
	// Tables and HotShare shape the commit workload: the number of
	// governed Delta tables, and the share of commits on the shared pair.
	Tables   int     `json:"tables,omitempty"`
	HotShare float64 `json:"hot_share,omitempty"`
	// OfferedRate is the open-loop rate in ops/s.
	OfferedRate float64 `json:"offered_rate_ops_s"`
	// WarmupOps runs this many ops per connection, untimed, before any
	// phase; WarmupEvents keeps warming until the event bus has published
	// this many events (its history bound), so writes run at steady state.
	WarmupOps    int `json:"warmup_ops"`
	WarmupEvents int `json:"warmup_events,omitempty"`
	// Setups is how many times a run builds the world; setup_s is their
	// median and the last build is measured.
	Setups int `json:"setups"`
}

type specFile struct {
	Workloads []spec `json:"workloads"`
}

func loadSpecs() (map[string]spec, []string, error) {
	var f specFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, nil, fmt.Errorf("workloads.json: %w", err)
	}
	out := map[string]spec{}
	var names []string
	for _, s := range f.Workloads {
		out[s.Name] = s
		names = append(names, s.Name)
	}
	return out, names, nil
}
