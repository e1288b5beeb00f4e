package cli

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/expt"
	"repro/internal/library"
	"repro/internal/reorder"
	"repro/internal/sweep"
)

const blifSrc = `.model t
.inputs a b
.outputs z
.names a b z
11 0
.end
`

const gnlSrc = `circuit t
inputs a b
outputs z
gate u1 nand2 y=z a=a b=b
end
`

func TestReadCircuitBLIF(t *testing.T) {
	c, err := ReadCircuit(strings.NewReader(blifSrc), ".blif", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Cell.Name != "nand2" {
		t.Fatalf("unexpected mapping: %d gates", len(c.Gates))
	}
}

func TestReadCircuitGNL(t *testing.T) {
	c, err := ReadCircuit(strings.NewReader(gnlSrc), ".gnl", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 {
		t.Fatalf("unexpected gate count %d", len(c.Gates))
	}
}

func TestLoadCircuitDispatch(t *testing.T) {
	dir := t.TempDir()
	blif := filepath.Join(dir, "t.blif")
	gnl := filepath.Join(dir, "t.gnl")
	if err := os.WriteFile(blif, []byte(blifSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gnl, []byte(gnlSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{blif, gnl} {
		if _, err := LoadCircuit(p, library.Default()); err != nil {
			t.Errorf("LoadCircuit(%s): %v", p, err)
		}
	}
	if _, err := LoadCircuit(filepath.Join(dir, "missing.blif"), library.Default()); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInputStatsScenario(t *testing.T) {
	c, err := ReadCircuit(strings.NewReader(blifSrc), ".blif", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := InputStats(c, "", "A", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d nets", len(stats))
	}
	if _, err := InputStats(c, "", "Q", 1); err == nil {
		t.Error("bogus scenario accepted")
	}
	if _, err := InputStats(c, "", "b", 1); err != nil {
		t.Errorf("lowercase scenario rejected: %v", err)
	}
}

func TestInputStatsFromFile(t *testing.T) {
	c, err := ReadCircuit(strings.NewReader(blifSrc), ".blif", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "stats.txt")
	if err := os.WriteFile(full, []byte("a 0.5 1e5\nb 0.2 2e5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := InputStats(c, full, "A", 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats["b"].P != 0.2 {
		t.Errorf("file stats not used: %+v", stats["b"])
	}
	// Incomplete file: missing input b.
	partial := filepath.Join(dir, "partial.txt")
	if err := os.WriteFile(partial, []byte("a 0.5 1e5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InputStats(c, partial, "A", 1); err == nil {
		t.Error("incomplete stats file accepted")
	}
	// Malformed file.
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("a 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InputStats(c, bad, "A", 1); err == nil {
		t.Error("malformed stats file accepted")
	}
}

func TestSweepMatrix(t *testing.T) {
	defaults := sweep.DefaultOptions()
	tests := []struct {
		name                           string
		bench, scenarios, modes, seeds string
		vectors, lanes                 int
		wantErr                        string // substring; "" = success
		wantBench                      []string
		wantScenarios                  []expt.Scenario
		wantModes                      []reorder.Mode
		wantSeeds                      []int64
		wantVectors, wantLanes         int
	}{
		{name: "defaults kept, vectors and lanes 0", scenarios: "A,B", modes: "full",
			wantScenarios: defaults.Scenarios, wantModes: defaults.Modes,
			wantVectors: defaults.Expt.SimVectors, wantLanes: defaults.Expt.SimLanes},
		{name: "explicit lists", bench: " c17, rca4 ,", scenarios: "b", modes: "full,input-only", seeds: "1, 2",
			vectors: 128, lanes: 512,
			wantBench: []string{"c17", "rca4"}, wantScenarios: []expt.Scenario{expt.ScenarioB},
			wantModes: []reorder.Mode{reorder.Full, reorder.InputOnly}, wantSeeds: []int64{1, 2},
			wantVectors: 128, wantLanes: 512},
		{name: "empty scenarios", scenarios: " , ", modes: "full", wantErr: "names no scenario"},
		{name: "empty modes", scenarios: "A", modes: " ", wantErr: "names no mode"},
		{name: "bad scenario", scenarios: "C", modes: "full", wantErr: "C"},
		{name: "bad mode", scenarios: "A", modes: "fastest", wantErr: "fastest"},
		{name: "bad seed", scenarios: "A", modes: "full", seeds: "1,x", wantErr: `bad seed "x"`},
		{name: "negative vectors", scenarios: "A", modes: "full", vectors: -1, wantErr: "-vectors -1"},
		{name: "lanes 513", scenarios: "A", modes: "full", lanes: 513, wantErr: "-lanes 513 out of [1,512]"},
		{name: "lanes negative", scenarios: "A", modes: "full", lanes: -1, wantErr: "-lanes -1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			opt := sweep.DefaultOptions()
			err := SweepMatrix(&opt, tc.bench, tc.scenarios, tc.modes, tc.seeds, tc.vectors, tc.lanes)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(opt.Benchmarks, tc.wantBench) || !slices.Equal(opt.Scenarios, tc.wantScenarios) ||
				!slices.Equal(opt.Modes, tc.wantModes) || !slices.Equal(opt.Seeds, tc.wantSeeds) {
				t.Errorf("matrix = %v × %v × %v × %v", opt.Benchmarks, opt.Scenarios, opt.Modes, opt.Seeds)
			}
			if opt.Expt.SimVectors != tc.wantVectors || opt.Expt.SimLanes != tc.wantLanes {
				t.Errorf("vectors/lanes = %d/%d, want %d/%d",
					opt.Expt.SimVectors, opt.Expt.SimLanes, tc.wantVectors, tc.wantLanes)
			}
		})
	}
}
