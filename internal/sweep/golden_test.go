package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expt"
	"repro/internal/reorder"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// TestJSONLGolden pins the sweep's JSONL results at full float precision:
// three embedded benchmarks × both scenarios × all four optimizer modes,
// simulated under each delay mode, plus one unit-delay matrix at 256
// lanes so the wide kernels are covered. The text goldens of cmd/paper
// round to three digits; these catch a changed summation order too.
// elapsed_ms is the only nondeterministic field and is dropped. Regenerate
// with
//
//	go test ./internal/sweep -run TestJSONLGolden -update
func TestJSONLGolden(t *testing.T) {
	cases := []struct {
		name  string
		mode  sim.DelayMode
		lanes int
	}{
		{"zero", sim.ZeroDelay, 0},
		{"unit", sim.UnitDelay, 0},
		{"elmore", sim.ElmoreDelay, 0},
		{"unit_256", sim.UnitDelay, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Benchmarks = []string{"c17", "rca8", "cm138a"}
			opt.Scenarios = []expt.Scenario{expt.ScenarioA, expt.ScenarioB}
			opt.Modes = []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral}
			opt.Seeds = []int64{1}
			opt.Workers = 2
			opt.Expt.HorizonA = 5e-5
			opt.Expt.CyclesB = 200
			opt.Expt.Sim.Mode = tc.mode
			if tc.lanes > 0 {
				opt.Expt.SimVectors = tc.lanes
				opt.Expt.SimLanes = tc.lanes
			}
			s, err := Run(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			enc := json.NewEncoder(&got)
			for _, r := range stripTiming(s.Results) {
				if r.Err != "" {
					t.Fatalf("job %d (%s %s %s): %s", r.Index, r.Benchmark, r.Scenario, r.Mode, r.Err)
				}
				if err := enc.Encode(r); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", "jsonl_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("sweep JSONL differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
			}
		})
	}
}
