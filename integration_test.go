package repro_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gate"
	"repro/internal/netlist"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
)

// TestEndToEndAllEmbeddedBenchmarks runs the complete flow — load, map,
// optimize best and worst, verify equivalence (formally when the input
// count allows), round-trip through GNL — on every hand-written classic.
func TestEndToEndAllEmbeddedBenchmarks(t *testing.T) {
	lib := repro.DefaultLibrary()
	for _, name := range repro.EmbeddedBenchmarks() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := repro.LoadBenchmark(name, lib)
			if err != nil {
				t.Fatal(err)
			}
			opt := expt.DefaultOptions()
			pi := expt.InputStats(c, expt.ScenarioA, opt)
			best, worst, err := repro.BestAndWorst(c, pi, repro.DefaultOptimizeOptions())
			if err != nil {
				t.Fatal(err)
			}
			if best.PowerAfter > worst.PowerAfter {
				t.Errorf("best %g above worst %g", best.PowerAfter, worst.PowerAfter)
			}
			for _, rep := range []*reorder.Report{best, worst} {
				var ok bool
				var witness string
				if len(c.Inputs) <= 14 {
					ok, witness, err = circuit.Equivalent(c, rep.Circuit)
				} else {
					ok, witness, err = circuit.EquivalentRandom(c, rep.Circuit, 256,
						rand.New(rand.NewSource(9)))
				}
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("%s: reordering broke the function: %s", name, witness)
				}
			}
			// GNL round trip of the optimized circuit.
			var buf strings.Builder
			if err := netlist.WriteGNL(&buf, best.Circuit); err != nil {
				t.Fatal(err)
			}
			back, err := netlist.ReadGNL(strings.NewReader(buf.String()), lib)
			if err != nil {
				t.Fatalf("%s: GNL reparse: %v", name, err)
			}
			if len(back.Gates) != len(best.Circuit.Gates) {
				t.Fatalf("%s: GNL round trip changed gate count", name)
			}
		})
	}
}

// TestScenarioBClockedCrossCheck runs the motivation-gate comparison
// under scenario-B clocked stimulus: the model-chosen best configuration
// must also measure no worse than the worst one when all inputs switch on
// clock edges.
func TestScenarioBClockedCrossCheck(t *testing.T) {
	g := expt.MotivationGate()
	prm := core.DefaultParams()
	const period = 100e-9
	const cycles = 4000
	in := []stoch.Signal{
		{P: 0.5, D: 0.5 / period},
		{P: 0.5, D: 0.5 / period},
		{P: 0.5, D: 0.5 / period},
	}
	best, err := core.BestConfig(g, in, prm.OutputLoad(1), prm)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := core.WorstConfig(g, in, prm.OutputLoad(1), prm)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cfg *gate.Gate) *circuit.Circuit {
		return &circuit.Circuit{
			Name:    "one",
			Inputs:  []string{"a1", "a2", "b"},
			Outputs: []string{"y"},
			Gates:   []*circuit.Instance{{Name: "u1", Cell: cfg, Pins: []string{"a1", "a2", "b"}, Out: "y"}},
		}
	}
	perCycle := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 0.5}, "a2": {P: 0.5, D: 0.5}, "b": {P: 0.5, D: 0.5},
	}
	rng := rand.New(rand.NewSource(21))
	waves, err := sim.GenerateClockedWaveforms([]string{"a1", "a2", "b"}, perCycle, cycles, period, rng)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sim.Run(mk(best.Gate), waves, cycles*period, sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := sim.Run(mk(worst.Gate), waves, cycles*period, sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rb.Power > rw.Power*(1+1e-9) {
		t.Errorf("clocked stimulus inverted the ordering: best %g vs worst %g", rb.Power, rw.Power)
	}
	t.Logf("clocked best-vs-worst reduction: %.1f%%", 100*(rw.Power-rb.Power)/rw.Power)
}
