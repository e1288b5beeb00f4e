package repro_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
)

const quickBLIF = `.model q
.inputs a b c
.outputs y
.names a b t
11 0
.names t c y
00 1
.end
`

func TestFacadeEndToEnd(t *testing.T) {
	nw, err := repro.ParseBLIF(strings.NewReader(quickBLIF))
	if err != nil {
		t.Fatal(err)
	}
	lib := repro.DefaultLibrary()
	c, err := repro.MapNetwork(nw, lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 1e5)
	before, err := repro.EstimatePower(c, stats)
	if err != nil {
		t.Fatal(err)
	}
	if before.Power <= 0 {
		t.Fatal("no power estimated")
	}
	rep, err := repro.Optimize(c, stats, repro.DefaultOptimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerAfter > rep.PowerBefore {
		t.Errorf("power increased: %g -> %g", rep.PowerBefore, rep.PowerAfter)
	}
	res, err := repro.Simulate(rep.Circuit, stats, 1e-4, 3, repro.DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Power <= 0 {
		t.Error("simulation measured no power")
	}
	timing, err := repro.CircuitDelay(rep.Circuit, repro.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	if timing.Delay <= 0 {
		t.Error("no delay computed")
	}
}

func TestFacadeGNLRoundTrip(t *testing.T) {
	nw, err := repro.ParseBLIF(strings.NewReader(quickBLIF))
	if err != nil {
		t.Fatal(err)
	}
	lib := repro.DefaultLibrary()
	c, err := repro.MapNetwork(nw, lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 1e5)
	rep, err := repro.Optimize(c, stats, repro.DefaultOptimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := repro.WriteGNL(&buf, rep.Circuit); err != nil {
		t.Fatal(err)
	}
	c2, err := repro.ReadGNL(strings.NewReader(buf.String()), lib)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := repro.EstimatePower(rep.Circuit, stats)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := repro.EstimatePower(c2, stats)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Power-a2.Power)/a1.Power > 1e-12 {
		t.Errorf("GNL round trip changed model power: %g vs %g", a1.Power, a2.Power)
	}
}

func TestFacadeBenchmarkLists(t *testing.T) {
	if got := len(repro.Benchmarks()); got != 39 {
		t.Errorf("Benchmarks() = %d names, want 39", got)
	}
	if got := len(repro.EmbeddedBenchmarks()); got < 8 {
		t.Errorf("EmbeddedBenchmarks() = %d names, want ≥ 8", got)
	}
	lib := repro.DefaultLibrary()
	for _, name := range repro.EmbeddedBenchmarks() {
		if _, err := repro.LoadBenchmark(name, lib); err != nil {
			t.Errorf("LoadBenchmark(%s): %v", name, err)
		}
	}
}

func TestFacadeScenarioInputs(t *testing.T) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	a := repro.ScenarioInputs(c, "A", 7)
	b := repro.ScenarioInputs(c, "B", 7)
	if len(a) != len(c.Inputs) || len(b) != len(c.Inputs) {
		t.Fatal("wrong number of annotated inputs")
	}
	for _, s := range b {
		if s.P != 0.5 {
			t.Errorf("scenario B P = %v", s.P)
		}
	}
	// Same seed, same draw.
	a2 := repro.ScenarioInputs(c, "A", 7)
	for net := range a {
		if a[net] != a2[net] {
			t.Fatal("ScenarioInputs not deterministic")
		}
	}
}

func TestFacadeBestAndWorst(t *testing.T) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("maj3", lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 2e5)
	best, worst, err := repro.BestAndWorst(c, stats, repro.DefaultOptimizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if best.PowerAfter > worst.PowerAfter {
		t.Errorf("best %g above worst %g", best.PowerAfter, worst.PowerAfter)
	}
}

func TestFacadeDelayNeutralMode(t *testing.T) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 1e5)
	opt := repro.DefaultOptimizeOptions()
	opt.Mode = repro.ModeDelayNeutral
	rep, err := repro.Optimize(c, stats, opt)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := repro.CircuitDelay(c, repro.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := repro.CircuitDelay(rep.Circuit, repro.DefaultDelayParams())
	if err != nil {
		t.Fatal(err)
	}
	if d1.Delay > d0.Delay*(1+1e-9) {
		t.Errorf("delay-neutral mode slowed the circuit: %g -> %g", d0.Delay, d1.Delay)
	}
	if rep.PowerAfter > rep.PowerBefore {
		t.Errorf("delay-neutral mode raised power")
	}
}

func TestFacadeSimulateDeterministic(t *testing.T) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("maj3", lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 2e5)
	r1, err := repro.Simulate(c, stats, 1e-4, 5, repro.DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := repro.Simulate(c, stats, 1e-4, 5, repro.DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy {
		t.Errorf("same seed, different energy: %g vs %g", r1.Energy, r2.Energy)
	}
	r3, err := repro.Simulate(c, stats, 1e-4, 6, repro.DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy == r3.Energy && r1.Events == r3.Events {
		t.Error("different seeds produced identical runs")
	}
}

func TestRunSweepFacade(t *testing.T) {
	opt := repro.DefaultSweepOptions()
	opt.Benchmarks = []string{"c17"}
	opt.Seeds = []int64{1}
	opt.Simulate = false
	opt.Workers = 2
	s, err := repro.RunSweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 2 || s.Failed != 0 { // scenarios A and B
		t.Fatalf("got %d results, %d failed", len(s.Results), s.Failed)
	}
	for _, r := range s.Results {
		if r.ModelRed <= 0 {
			t.Errorf("job %d (%s/%s): non-positive model reduction %v", r.Index, r.Benchmark, r.Scenario, r.ModelRed)
		}
	}
}

func TestIncrementalAnalysisFacade(t *testing.T) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 1e5)
	inc, err := repro.NewIncrementalAnalysis(c, stats, repro.DefaultPowerParams())
	if err != nil {
		t.Fatal(err)
	}
	full, err := repro.EstimatePower(c, stats)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(inc.Power()-full.Power) / full.Power; diff > 1e-9 {
		t.Fatalf("incremental power %v != full %v", inc.Power(), full.Power)
	}
}

// TestFacadeSimulateVectorsTimed: the facade's packed Monte Carlo
// measurement works in every delay mode — timed modes compile the timed
// program, and the mean per-lane power is deterministic in the seed.
func TestFacadeSimulateVectorsTimed(t *testing.T) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("c17", lib)
	if err != nil {
		t.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 2e5)
	prm := repro.DefaultSimParams()
	const horizon = 1e-4
	br, err := repro.SimulateVectors(c, stats, horizon, 8, 11, prm)
	if err != nil {
		t.Fatal(err)
	}
	if br.Lanes != 8 || br.Energy <= 0 || br.OutputFlips == 0 {
		t.Fatalf("degenerate timed vector run: %+v", br.Result)
	}
	// The compiled timed program is reachable directly too.
	prog, err := repro.CompileTimedSimulation(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Tick() != prm.Unit {
		t.Fatalf("unit-mode auto tick %g, want %g", prog.Tick(), prm.Unit)
	}
	// Mean per-lane power is deterministic in the seed.
	br2, err := repro.SimulateVectors(c, stats, horizon, 8, 11, prm)
	if err != nil {
		t.Fatal(err)
	}
	if br.Power != br2.Power {
		t.Fatalf("timed SimulateVectors not deterministic: %v vs %v", br.Power, br2.Power)
	}
}
