package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/sp"
	"repro/internal/stoch"
)

func invCircuit() *circuit.Circuit {
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	return &circuit.Circuit{
		Name:    "inv1",
		Inputs:  []string{"a"},
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: invCell, Pins: []string{"a"}, Out: "z"}},
	}
}

func oai21Circuit(cfg *gate.Gate) *circuit.Circuit {
	return &circuit.Circuit{
		Name:    "one",
		Inputs:  []string{"a1", "a2", "b"},
		Outputs: []string{"y"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: cfg, Pins: []string{"a1", "a2", "b"}, Out: "y"}},
	}
}

func TestInverterCountsAndEnergy(t *testing.T) {
	prm := DefaultParams()
	c := invCircuit()
	// Deterministic waveform: 4 transitions.
	waves := map[string]*stoch.Waveform{
		"a": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true}, {Time: 4e-6, Value: false},
		}},
	}
	res, err := Run(c, waves, 5e-6, prm)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NetTransitions["a"]; got != 4 {
		t.Errorf("input transitions = %d, want 4", got)
	}
	if got := res.NetTransitions["z"]; got != 4 {
		t.Errorf("output transitions = %d, want 4", got)
	}
	// Energy: 4 output flips × ½·C_y·V², C_y = 2Cj + load(1 PO).
	cy := 2*prm.Cap.Cj + prm.Cap.OutputLoad(1)
	want := 4 * 0.5 * prm.Cap.Vdd * prm.Cap.Vdd * cy
	if math.Abs(res.Energy-want)/want > 1e-12 {
		t.Errorf("energy = %g, want %g", res.Energy, want)
	}
	if res.InternalFlips != 0 {
		t.Errorf("inverter reported %d internal flips", res.InternalFlips)
	}
}

func TestEventsBeyondHorizonIgnored(t *testing.T) {
	prm := DefaultParams()
	c := invCircuit()
	waves := map[string]*stoch.Waveform{
		"a": {Initial: false, Events: []stoch.Event{{Time: 10, Value: true}}},
	}
	res, err := Run(c, waves, 1.0, prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetTransitions["a"] != 0 || res.Energy != 0 {
		t.Error("event beyond horizon was processed")
	}
}

func TestChainPreservesTransitionCount(t *testing.T) {
	// A 3-inverter chain has a single path: no glitches possible, every
	// stage sees exactly the input transition count.
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	c := &circuit.Circuit{
		Name:    "chain",
		Inputs:  []string{"w0"},
		Outputs: []string{"w3"},
		Gates: []*circuit.Instance{
			{Name: "g1", Cell: invCell, Pins: []string{"w0"}, Out: "w1"},
			{Name: "g2", Cell: invCell, Pins: []string{"w1"}, Out: "w2"},
			{Name: "g3", Cell: invCell, Pins: []string{"w2"}, Out: "w3"},
		},
	}
	rng := rand.New(rand.NewSource(1))
	waves, err := GenerateWaveforms(c.Inputs, map[string]stoch.Signal{"w0": {P: 0.5, D: 1e6}}, 1e-4, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, waves, 1e-4, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	in := res.NetTransitions["w0"]
	if in < 20 {
		t.Fatalf("too few stimulus transitions: %d", in)
	}
	for _, net := range []string{"w1", "w2", "w3"} {
		// The final transitions may still be in flight at the horizon:
		// allow a few in-flight events of slack.
		if d := in - res.NetTransitions[net]; d < 0 || d > 3 {
			t.Errorf("net %s transitions = %d, input = %d", net, res.NetTransitions[net], in)
		}
	}
}

func TestMeasuredDensityMatchesModel(t *testing.T) {
	// NAND2 with a quiet second input: model says D(z)=P(b)·D(a)=0.5·D(a).
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "nand",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: nandCell, Pins: []string{"a", "b"}, Out: "z"}},
	}
	stats := map[string]stoch.Signal{
		"a": {P: 0.5, D: 1e6},
		"b": {P: 0.5, D: 1e5},
	}
	rng := rand.New(rand.NewSource(7))
	horizon := 5e-3
	waves, err := GenerateWaveforms(c.Inputs, stats, horizon, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, waves, horizon, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the propagation formula on the *measured* input statistics
	// so waveform sampling noise cancels out of the comparison:
	// D(z) = P(b)·D(a) + P(a)·D(b).
	measured := map[string]stoch.Signal{
		"a": {P: waves["a"].MeasuredProbability(horizon), D: res.Density("a")},
		"b": {P: waves["b"].MeasuredProbability(horizon), D: res.Density("b")},
	}
	model, err := core.NetStatistics(c, measured)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Density("z")
	want := model["z"].D
	if rel := math.Abs(got-want) / want; rel > 0.10 {
		t.Errorf("measured D(z)=%.4g, model %.4g (rel err %.2f)", got, want, rel)
	}
}

func TestInternalFlipCounting(t *testing.T) {
	// NAND2, configuration s(a,b) (a at output, b at ground). Drive b with
	// a square wave while a is held 1: every b transition toggles both the
	// internal node and the output.
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "nand",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: nandCell, Pins: []string{"a", "b"}, Out: "z"}},
	}
	waves := map[string]*stoch.Waveform{
		"a": {Initial: true},
		"b": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true}, {Time: 4e-6, Value: false},
		}},
	}
	res, err := Run(c, waves, 5e-6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// With a=1: b=1 discharges n0 (and z), b=0 charges n0 through the
	// pull-up once z rises. Expect as many output flips as b flips, and at
	// least as many internal flips.
	if res.NetTransitions["z"] != 4 {
		t.Errorf("z transitions = %d, want 4", res.NetTransitions["z"])
	}
	if res.InternalFlips < 4 {
		t.Errorf("internal flips = %d, want ≥ 4", res.InternalFlips)
	}
}

func TestChargeRetentionSuppressesInternalActivity(t *testing.T) {
	// With the top transistor off (a=0), toggling the bottom input b only
	// exercises the internal node's discharge path; the output never moves.
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "nand",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: nandCell, Pins: []string{"a", "b"}, Out: "z"}},
	}
	waves := map[string]*stoch.Waveform{
		"a": {Initial: false},
		"b": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true},
		}},
	}
	res, err := Run(c, waves, 5e-6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.NetTransitions["z"] != 0 {
		t.Errorf("output moved %d times with the stack off", res.NetTransitions["z"])
	}
	// n0 discharges on the first b=1 and then holds (charge retention):
	// at most one internal flip.
	if res.InternalFlips > 1 {
		t.Errorf("internal flips = %d, want ≤ 1 (charge retention)", res.InternalFlips)
	}
}

func TestGlitchGenerationUnderUnitDelay(t *testing.T) {
	// z = nand(x, inv³(x)) is logically constant 1, but the three-inverter
	// branch lags the direct one by three gate delays, so every x edge
	// produces a pulse at z wider than the NAND's own delay — a useless
	// transition the simulator must expose. (A skew of exactly one delay
	// would be filtered: output updates sample the gate state after its
	// delay, which is the inertial behaviour of a real gate.)
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "glitch",
		Inputs:  []string{"x"},
		Outputs: []string{"z"},
		Gates: []*circuit.Instance{
			{Name: "i1", Cell: invCell, Pins: []string{"x"}, Out: "n1"},
			{Name: "i2", Cell: invCell, Pins: []string{"n1"}, Out: "n2"},
			{Name: "i3", Cell: invCell, Pins: []string{"n2"}, Out: "nx"},
			{Name: "g1", Cell: nandCell, Pins: []string{"x", "nx"}, Out: "z"},
		},
	}
	waves := map[string]*stoch.Waveform{
		"x": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true}, {Time: 4e-6, Value: false},
		}},
	}
	res, err := Run(c, waves, 6e-6, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Useless transitions: z is logically constant yet switches.
	if res.NetTransitions["z"] == 0 {
		t.Error("no glitches generated on a reconvergent path under unit delay")
	}
	if res.NetTransitions["z"]%2 != 0 {
		t.Errorf("glitch count %d is odd: z must return to 1", res.NetTransitions["z"])
	}
}

func TestDeterminism(t *testing.T) {
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	c := oai21Circuit(g)
	stats := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 1e4}, "a2": {P: 0.5, D: 1e5}, "b": {P: 0.5, D: 1e6},
	}
	run := func() *Result {
		rng := rand.New(rand.NewSource(99))
		waves, err := GenerateWaveforms(c.Inputs, stats, 1e-3, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, waves, 1e-3, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Energy != r2.Energy || r1.Events != r2.Events {
		t.Errorf("same seed produced different results: %g/%d vs %g/%d",
			r1.Energy, r1.Events, r2.Energy, r2.Events)
	}
}

func TestMeasureReductionMotivationGate(t *testing.T) {
	// Table 1 cross-check: the model-chosen best configuration must also
	// measure better than the worst one in switch-level simulation.
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	prm := core.DefaultParams()
	in := []stoch.Signal{{P: 0.5, D: 1e4}, {P: 0.5, D: 1e5}, {P: 0.5, D: 1e6}}
	best, err := core.BestConfig(g, in, prm.OutputLoad(1), prm)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := core.WorstConfig(g, in, prm.OutputLoad(1), prm)
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]stoch.Signal{"a1": in[0], "a2": in[1], "b": in[2]}
	rng := rand.New(rand.NewSource(3))
	horizon := 5e-3
	waves, err := GenerateWaveforms([]string{"a1", "a2", "b"}, stats, horizon, rng)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(oai21Circuit(best.Gate), waves, horizon, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(oai21Circuit(worst.Gate), waves, horizon, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if red := (rw.Power - rb.Power) / rw.Power; red <= 0.05 {
		t.Errorf("simulated reduction = %.1f%%, want clearly positive", 100*red)
	}
	if rb.Power >= rw.Power {
		t.Errorf("best power %g not below worst %g", rb.Power, rw.Power)
	}
}

func TestClockedWaveformsScenarioB(t *testing.T) {
	c := invCircuit()
	stats := map[string]stoch.Signal{"a": {P: 0.5, D: 0.5}}
	rng := rand.New(rand.NewSource(5))
	period := 100e-9
	cycles := 1000
	waves, err := GenerateClockedWaveforms(c.Inputs, stats, cycles, period, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, waves, float64(cycles)*period, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	perCycle := float64(res.NetTransitions["a"]) / float64(cycles)
	if math.Abs(perCycle-0.5) > 0.05 {
		t.Errorf("input toggles %.3f/cycle, want 0.5", perCycle)
	}
}

func TestRunErrors(t *testing.T) {
	c := invCircuit()
	waves := map[string]*stoch.Waveform{"a": {Initial: false}}
	if _, err := Run(c, map[string]*stoch.Waveform{}, 1, DefaultParams()); err == nil {
		t.Error("missing waveform accepted")
	}
	if _, err := Run(c, waves, 0, DefaultParams()); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := DefaultParams()
	bad.Unit = 0
	if _, err := Run(c, waves, 1, bad); err == nil {
		t.Error("zero unit delay accepted")
	}
	bad2 := DefaultParams()
	bad2.Mode = DelayMode(42)
	if _, err := Run(c, waves, 1, bad2); err == nil {
		t.Error("bogus delay mode accepted")
	}
	// A NaN horizon fails every comparison, so a bare horizon <= 0 check
	// let it through to the packers.
	for _, horizon := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, mode := range []DelayMode{ZeroDelay, UnitDelay, ElmoreDelay} {
			prm := DefaultParams()
			prm.Mode = mode
			if _, err := Run(c, waves, horizon, prm); err == nil {
				t.Errorf("%s delay: horizon %v accepted", mode.name(), horizon)
			}
			if _, _, err := RunTrace(c, waves, horizon, prm); err == nil {
				t.Errorf("%s delay: traced horizon %v accepted", mode.name(), horizon)
			}
		}
	}
}

func TestGenerateWaveformsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateWaveforms([]string{"a"}, map[string]stoch.Signal{}, 1, rng); err == nil {
		t.Error("missing stats accepted")
	}
	// Exponential's draw loop never ends on a NaN or +Inf horizon.
	for _, horizon := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := GenerateWaveforms([]string{"a"}, map[string]stoch.Signal{"a": {P: 0.5, D: 1e6}}, horizon, rng); err == nil {
			t.Errorf("horizon %v accepted", horizon)
		}
	}
	if _, err := GenerateClockedWaveforms([]string{"a"}, map[string]stoch.Signal{"a": {P: 1, D: 1}}, 10, 1, rng); err == nil {
		t.Error("unrealizable clocked stats accepted")
	}
}

func TestElmoreModeRuns(t *testing.T) {
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	c := oai21Circuit(g)
	stats := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 1e5}, "a2": {P: 0.5, D: 1e5}, "b": {P: 0.5, D: 1e5},
	}
	rng := rand.New(rand.NewSource(11))
	waves, err := GenerateWaveforms(c.Inputs, stats, 1e-4, rng)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.Mode = ElmoreDelay
	res, err := Run(c, waves, 1e-4, prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Error("no energy recorded in Elmore mode")
	}
	prm.Mode = ZeroDelay
	if _, err := Run(c, waves, 1e-4, prm); err != nil {
		t.Errorf("zero-delay mode failed: %v", err)
	}
}

func BenchmarkSimulateOAI21(b *testing.B) {
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	c := oai21Circuit(g)
	stats := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 1e4}, "a2": {P: 0.5, D: 1e5}, "b": {P: 0.5, D: 1e6},
	}
	rng := rand.New(rand.NewSource(2))
	waves, err := GenerateWaveforms(c.Inputs, stats, 1e-3, rng)
	if err != nil {
		b.Fatal(err)
	}
	prm := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, waves, 1e-3, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTickPlan pins the exported tick-grid computation external reference
// simulators (internal/gen's oracle) share with the timed engines.
func TestTickPlan(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("c17", lib)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	tick, delays, order, err := TickPlan(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	if tick != prm.Unit {
		t.Fatalf("unit-mode tick %v, want the unit delay %v", tick, prm.Unit)
	}
	if len(delays) != len(c.Gates) || len(order) != len(c.Gates) {
		t.Fatalf("plan covers %d/%d gates, want %d", len(delays), len(order), len(c.Gates))
	}
	for i, d := range delays {
		if d != 1 {
			t.Fatalf("unit-mode gate %d delayed %d ticks, want 1", i, d)
		}
	}
	prm.Mode = ElmoreDelay
	tick, delays, _, err = TickPlan(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	if tick <= 0 {
		t.Fatalf("elmore tick %v", tick)
	}
	minD := delays[0]
	for _, d := range delays {
		if d < 1 {
			t.Fatalf("quantized delay %d below one tick", d)
		}
		if d < minD {
			minD = d
		}
	}
	// Auto resolution spans the fastest gate across elmoreTickDiv ticks.
	if minD != elmoreTickDiv {
		t.Fatalf("fastest gate spans %d ticks, want %d", minD, elmoreTickDiv)
	}
	prm.Mode = ZeroDelay
	if _, _, _, err := TickPlan(c, prm); err == nil {
		t.Fatal("zero-delay tick plan accepted")
	}
}

// TestTickGridBound pins the tick-grid bound TickPlan and CompileTimed
// share: a tick on which the slowest gate delay quantizes past
// maxGridDelayTicks is rejected (it would size every run's timing wheel by
// the ratio, or overflow the quantization), and the bound itself is
// accepted.
func TestTickGridBound(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	unit := DefaultParams()
	elmore := DefaultParams()
	elmore.Mode = ElmoreDelay
	for _, tc := range []struct {
		name string
		prm  Params
		tick float64
	}{
		{"unit-1e-17", unit, 1e-17},                                    // 1e8 ticks per gate
		{"unit-past-bound", unit, unit.Unit / (maxGridDelayTicks + 1)}, // one tick past
		{"elmore-1e-30", elmore, 1e-30},                                // int64 overflow
		{"elmore-denormal", elmore, math.SmallestNonzeroFloat64},       // infinite ratio
	} {
		t.Run(tc.name, func(t *testing.T) {
			prm := tc.prm
			prm.Tick = tc.tick
			if _, _, _, err := TickPlan(c, prm); err == nil {
				t.Fatalf("TickPlan accepted tick %g", tc.tick)
			}
			if tp, err := CompileTimed(c, prm); err == nil {
				t.Fatalf("CompileTimed accepted tick %g (max delay %d ticks)", tc.tick, tp.MaxDelayTicks())
			}
		})
	}
	prm := unit
	prm.Tick = unit.Unit / maxGridDelayTicks
	tp, err := CompileTimed(c, prm)
	if err != nil {
		t.Fatalf("tick at the bound rejected: %v", err)
	}
	if got := tp.MaxDelayTicks(); got != maxGridDelayTicks {
		t.Fatalf("max delay %d ticks at the bound, want %d", got, maxGridDelayTicks)
	}
	_, delays, _, err := TickPlan(c, prm)
	if err != nil {
		t.Fatalf("TickPlan rejected the bound: %v", err)
	}
	for i, d := range delays {
		if d != maxGridDelayTicks {
			t.Fatalf("gate %d: %d ticks, want %d", i, d, maxGridDelayTicks)
		}
	}
}

// TestParseDelayMode pins the parser as the inverse of the mode names and
// its error text, which servd returns to clients verbatim.
func TestParseDelayMode(t *testing.T) {
	for _, m := range []DelayMode{ZeroDelay, UnitDelay, ElmoreDelay} {
		got, err := ParseDelayMode(m.name())
		if err != nil || got != m {
			t.Errorf("ParseDelayMode(%q) = %v, %v; want %v", m.name(), got, err, m)
		}
	}
	_, err := ParseDelayMode("fast")
	if want := `unknown delay mode "fast" (want zero, unit or elmore)`; err == nil || err.Error() != want {
		t.Errorf("ParseDelayMode(fast) error = %v, want %q", err, want)
	}
}
