package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// refSeconds is the timed phase the reference work sizes were fitted
// to, and BENCHMARK.json's run_seconds. -seconds scales the work
// linearly from here; the work for a given -seconds is fixed.
const refSeconds = 15

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// declared is what the runner takes from BENCHMARK.json, the one place
// the metrics are defined. Every workload emits every end-to-end
// metric (README.md defines p50_ms and tail_ms per workload) and every
// traced run every per-layer one; a span-derived serve.*_ms metric is 0
// on a workload that makes no such request.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDeclared(repoDir string) (*declared, error) {
	buf, err := os.ReadFile(filepath.Join(repoDir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics", len(d.EndToEnd), len(d.PerLayer))
	}
	return &d, nil
}
