package expt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
)

func TestInputStatsScenarios(t *testing.T) {
	opt := DefaultOptions()
	c, err := mcnc.Load("rca4", opt.Lib)
	if err != nil {
		t.Fatal(err)
	}
	a := InputStats(c, ScenarioA, opt)
	if len(a) != len(c.Inputs) {
		t.Fatalf("scenario A stats for %d inputs, want %d", len(a), len(c.Inputs))
	}
	varied := false
	for _, s := range a {
		if err := s.Validate(); err != nil {
			t.Errorf("invalid scenario A stats: %v", err)
		}
		if s.D > opt.MaxDensA {
			t.Errorf("density %g exceeds bound", s.D)
		}
		if math.Abs(s.P-0.5) > 0.01 {
			varied = true
		}
	}
	if !varied {
		t.Error("scenario A probabilities all ≈0.5; expected variety")
	}
	b := InputStats(c, ScenarioB, opt)
	for _, s := range b {
		if s.P != 0.5 {
			t.Errorf("scenario B P = %v, want 0.5", s.P)
		}
		if math.Abs(s.D-0.5/opt.PeriodB) > 1e-6 {
			t.Errorf("scenario B D = %v, want %v", s.D, 0.5/opt.PeriodB)
		}
	}
}

func TestInputStatsDeterministic(t *testing.T) {
	opt := DefaultOptions()
	c, err := mcnc.Load("rca4", opt.Lib)
	if err != nil {
		t.Fatal(err)
	}
	a1 := InputStats(c, ScenarioA, opt)
	a2 := InputStats(c, ScenarioA, opt)
	for net, s := range a1 {
		if a2[net] != s {
			t.Fatalf("stats for %s differ between draws with the same seed", net)
		}
	}
}

func TestTable1ReproducesPaperShape(t *testing.T) {
	res, err := Table1(DefaultOptions().Params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 4 {
		t.Fatalf("%d configurations, want 4", len(res.Labels))
	}
	if len(res.Rel) != 2 {
		t.Fatalf("%d cases, want 2", len(res.Rel))
	}
	// The headline claim: the best configuration flips between the cases.
	if res.BestIdx[0] == res.BestIdx[1] {
		t.Errorf("best configuration did not flip: %s in both cases", res.Labels[res.BestIdx[0]])
	}
	// Reductions in the paper's ballpark (19% / 17%; capacitance model
	// differences move the absolute numbers).
	for ci, red := range res.Red {
		if red < 0.08 || red > 0.50 {
			t.Errorf("case %d reduction = %.1f%%, outside the plausible band", ci+1, 100*red)
		}
	}
	// Normalization: case (1)'s last configuration is the reference, so
	// some case-(1) entry equals 1.0 at the reference index or is below.
	if res.Rel[0][len(res.Rel[0])-1] != 1.0 {
		t.Errorf("case 1 reference power = %v, want 1.0", res.Rel[0][3])
	}
}

func TestRunCircuitSmall(t *testing.T) {
	opt := DefaultOptions()
	opt.HorizonA = 2e-4 // keep the test fast
	c, err := mcnc.Load("rca4", opt.Lib)
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunCircuit(c, ScenarioA, opt)
	if err != nil {
		t.Fatal(err)
	}
	if row.Gates != len(c.Gates) {
		t.Errorf("row gates %d, want %d", row.Gates, len(c.Gates))
	}
	if row.ModelRed <= 0 {
		t.Errorf("model reduction %.3f not positive", row.ModelRed)
	}
	if row.SimRed <= 0 {
		t.Errorf("simulated reduction %.3f not positive", row.SimRed)
	}
	// Simulation and model must agree on the winner and roughly on the
	// magnitude.
	if math.Abs(row.SimRed-row.ModelRed) > 0.20 {
		t.Errorf("model %.2f and simulation %.2f disagree wildly", row.ModelRed, row.SimRed)
	}
}

// TestSimReductionZeroDelayUsesBitParallel: with a zero-delay simulator
// configuration, SimReduction routes through the compiled bit-parallel
// engine (SimVectors Monte Carlo lanes). The measurement must be
// deterministic in the seed and agree with the model on the winner.
func TestSimReductionZeroDelayUsesBitParallel(t *testing.T) {
	opt := DefaultOptions()
	opt.HorizonA = 2e-4
	opt.Sim.Mode = sim.ZeroDelay
	opt.SimVectors = 16
	c, err := mcnc.Load("rca4", opt.Lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := InputStats(c, ScenarioA, opt)
	ro := reorder.DefaultOptions()
	ro.Params = opt.Params
	best, worst, err := reorder.BestAndWorst(c, pi, ro)
	if err != nil {
		t.Fatal(err)
	}
	red1, err := SimReduction(c, best.Circuit, worst.Circuit, pi, ScenarioA, 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	red2, err := SimReduction(c, best.Circuit, worst.Circuit, pi, ScenarioA, 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	if red1 != red2 {
		t.Errorf("packed SimReduction not deterministic: %v vs %v", red1, red2)
	}
	if red1 <= 0 {
		t.Errorf("zero-delay bit-parallel reduction %.3f not positive", red1)
	}
	// Scenario B exercises the clocked packed generator.
	piB := InputStats(c, ScenarioB, opt)
	opt.CyclesB = 500
	bestB, worstB, err := reorder.BestAndWorst(c, piB, ro)
	if err != nil {
		t.Fatal(err)
	}
	redB, err := SimReduction(c, bestB.Circuit, worstB.Circuit, piB, ScenarioB, 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	if redB <= -0.05 {
		t.Errorf("scenario B zero-delay reduction %.3f strongly negative", redB)
	}
}

// TestSimReductionTimedUsesBitParallel: unit- and Elmore-delay S-column
// measurements route through the timed compiled backend — SimVectors
// Monte Carlo lanes, deterministic in the seed.
func TestSimReductionTimedUsesBitParallel(t *testing.T) {
	opt := DefaultOptions()
	opt.HorizonA = 2e-4
	opt.CyclesB = 300
	opt.SimVectors = 16
	c, err := mcnc.Load("rca4", opt.Lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := InputStats(c, ScenarioA, opt)
	ro := reorder.DefaultOptions()
	ro.Params = opt.Params
	best, worst, err := reorder.BestAndWorst(c, pi, ro)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sim.DelayMode{sim.UnitDelay, sim.ElmoreDelay} {
		opt.Sim.Mode = mode
		red1, err := SimReduction(c, best.Circuit, worst.Circuit, pi, ScenarioA, 42, opt)
		if err != nil {
			t.Fatal(err)
		}
		red2, err := SimReduction(c, best.Circuit, worst.Circuit, pi, ScenarioA, 42, opt)
		if err != nil {
			t.Fatal(err)
		}
		if red1 != red2 {
			t.Errorf("mode %v: timed SimReduction not deterministic: %v vs %v", mode, red1, red2)
		}
		if red1 <= 0 {
			t.Errorf("mode %v: timed bit-parallel reduction %.3f not positive", mode, red1)
		}
		// Scenario B exercises the clocked generator through the timed path.
		piB := InputStats(c, ScenarioB, opt)
		redB, err := SimReduction(c, best.Circuit, worst.Circuit, piB, ScenarioB, 42, opt)
		if err != nil {
			t.Fatal(err)
		}
		if redB <= -1 || redB >= 1 {
			t.Errorf("mode %v: scenario B timed reduction %v outside (-1,1)", mode, redB)
		}
	}
}

// TestScenarioSignals: the hoisted helper converts densities to
// transitions/cycle for scenario B and passes scenario A through.
func TestScenarioSignals(t *testing.T) {
	opt := DefaultOptions()
	pi := map[string]stoch.Signal{"x": {P: 0.3, D: 4e5}}
	if got := scenarioSignals(pi, ScenarioA, opt); got["x"] != pi["x"] {
		t.Errorf("scenario A altered the statistics: %v", got["x"])
	}
	got := scenarioSignals(pi, ScenarioB, opt)
	want := stoch.Signal{P: 0.3, D: 4e5 * opt.PeriodB}
	if got["x"] != want {
		t.Errorf("scenario B statistics %v, want %v", got["x"], want)
	}
	if h := scenarioHorizon(ScenarioB, opt); h != float64(opt.CyclesB)*opt.PeriodB {
		t.Errorf("scenario B horizon %g", h)
	}
	if h := scenarioHorizon(ScenarioA, opt); h != opt.HorizonA {
		t.Errorf("scenario A horizon %g", h)
	}
}

func TestRunScenarioBReductionSmaller(t *testing.T) {
	if testing.Short() {
		t.Skip("two full measurements")
	}
	opt := DefaultOptions()
	opt.HorizonA = 2e-4
	opt.CyclesB = 1000
	c, err := mcnc.Load("rca8", opt.Lib)
	if err != nil {
		t.Fatal(err)
	}
	rowA, err := RunCircuit(c, ScenarioA, opt)
	if err != nil {
		t.Fatal(err)
	}
	rowB, err := RunCircuit(c, ScenarioB, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rowA.ModelRed <= 0 || rowB.ModelRed <= 0 {
		t.Fatalf("non-positive reductions: A=%v B=%v", rowA.ModelRed, rowB.ModelRed)
	}
	// The paper: scenario B's reduction is roughly half of scenario A's.
	// Require it to be clearly smaller.
	if rowB.ModelRed >= rowA.ModelRed {
		t.Errorf("scenario B reduction (%.3f) not below scenario A (%.3f)", rowB.ModelRed, rowA.ModelRed)
	}
}

func TestRunSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	opt := DefaultOptions()
	opt.HorizonA = 1e-4
	rows, avg, err := Run(ScenarioA, []string{"cm138a", "cht"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || avg.Rows != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if avg.ModelRed <= 0 {
		t.Errorf("average model reduction %.3f not positive", avg.ModelRed)
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := FormatTable([]string{"name", "value"}, [][]string{
		{"a", "1"},
		{"longer", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator not aligned with header:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "longer") {
		t.Errorf("row order broken:\n%s", out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.123); got != "+12.3%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(-0.05); got != "-5.0%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestScenarioString(t *testing.T) {
	if ScenarioA.String() != "A" || ScenarioB.String() != "B" {
		t.Error("scenario names wrong")
	}
}

func TestPaperNumbers(t *testing.T) {
	p := Paper()
	if p.SimRedA != 0.12 || p.ModelRedA != 0.09 || p.DelayIncA != 0.04 {
		t.Errorf("paper constants drifted: %+v", p)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps")
	}
	names := []string{"cm138a", "cht", "cu"}
	seq := DefaultOptions()
	seq.HorizonA = 1e-4
	seq.Workers = 1
	par := seq
	par.Workers = 4
	rowsSeq, avgSeq, err := Run(ScenarioA, names, seq)
	if err != nil {
		t.Fatal(err)
	}
	rowsPar, avgPar, err := Run(ScenarioA, names, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rowsSeq {
		if rowsSeq[i] != rowsPar[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, rowsSeq[i], rowsPar[i])
		}
	}
	if avgSeq != avgPar {
		t.Errorf("averages differ: %+v vs %+v", avgSeq, avgPar)
	}
}
