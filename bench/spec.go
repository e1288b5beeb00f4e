package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads: which
// workloads exist and each metric's unit, direction and bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric of the spec. Bound is the share of the base
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, d := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, d.Name, d.Better)
		}
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// goldenSeed is the seed testdata/golden.json pins.
const goldenSeed = 1

// goldenJSON maps each workload to the digest of its pinned output at
// goldenSeed: the first round of a sweep, the first requests of the
// service stream.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// checkGolden compares a run at the golden seed with the pinned digest.
func checkGolden(workload string, seed int64, res *outcome) error {
	if seed != goldenSeed {
		return nil
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	switch want, ok := golden[workload]; {
	case !ok:
		res.fail("testdata/golden.json has no digest for %s (this run's: %s)", workload, res.digest)
	case want != res.digest:
		res.fail("output digest %s differs from testdata/golden.json's %s: results changed", res.digest, want)
	}
	return nil
}
