package reorder

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/library"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/stoch"
)

// testCircuit maps a small BLIF source for optimization tests.
func testCircuit(t testing.TB, src string) *circuit.Circuit {
	t.Helper()
	nw, err := netlist.ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := mapper.Map(nw, library.Default())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const adder2BLIF = `.model add2
.inputs a0 b0 a1 b1 cin
.outputs s0 s1 cout
.names a0 b0 cin s0
100 1
010 1
001 1
111 1
.names a0 b0 cin c1
11- 1
1-1 1
-11 1
.names a1 b1 c1 s1
100 1
010 1
001 1
111 1
.names a1 b1 c1 cout
11- 1
1-1 1
-11 1
.end
`

// rcaStats gives the carry chain higher activity than the operand bits,
// as the paper's ripple-carry discussion prescribes.
func rcaStats(c *circuit.Circuit) map[string]stoch.Signal {
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		d := 1e5
		if in == "cin" {
			d = 8e5
		}
		pi[in] = stoch.Signal{P: 0.5, D: d}
	}
	return pi
}

func TestOptimizeReducesModelPower(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	rep, err := Optimize(c, rcaStats(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerAfter > rep.PowerBefore+1e-30 {
		t.Errorf("optimization increased power: %g → %g", rep.PowerBefore, rep.PowerAfter)
	}
	if rep.GatesChanged == 0 {
		t.Error("optimizer changed no gate on a non-trivial circuit")
	}
	if rep.Reduction() < 0 {
		t.Errorf("negative reduction %v", rep.Reduction())
	}
}

func TestOptimizePreservesFunction(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	rep, err := Optimize(c, rcaStats(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 64; trial++ {
		in := map[string]bool{}
		for _, name := range c.Inputs {
			in[name] = rng.Intn(2) == 1
		}
		v1, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := rep.Circuit.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range c.Outputs {
			if v1[o] != v2[o] {
				t.Fatalf("output %s changed after reordering", o)
			}
		}
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	keys := make([]string, len(c.Gates))
	for i, g := range c.Gates {
		keys[i] = g.Cell.ConfigKey()
	}
	if _, err := Optimize(c, rcaStats(c), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i, g := range c.Gates {
		if g.Cell.ConfigKey() != keys[i] {
			t.Fatalf("input circuit mutated at instance %s", g.Name)
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	// Monotonicity (Sec. 4.2): one traversal suffices; a second pass over
	// the optimized circuit changes nothing.
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	rep1, err := Optimize(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Optimize(rep1.Circuit, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.GatesChanged != 0 {
		t.Errorf("second pass changed %d gates", rep2.GatesChanged)
	}
	if math.Abs(rep2.PowerAfter-rep1.PowerAfter)/rep1.PowerAfter > 1e-12 {
		t.Errorf("second pass changed power: %g → %g", rep1.PowerAfter, rep2.PowerAfter)
	}
}

func TestBestAndWorstSpread(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	best, worst, err := BestAndWorst(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if best.PowerAfter >= worst.PowerAfter {
		t.Fatalf("best %g not below worst %g", best.PowerAfter, worst.PowerAfter)
	}
	spread := (worst.PowerAfter - best.PowerAfter) / worst.PowerAfter
	if spread < 0.01 {
		t.Errorf("best-vs-worst spread only %.2f%%", 100*spread)
	}
}

func TestInputOnlyIsSubsetOfFull(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	full, err := Optimize(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optIn := DefaultOptions()
	optIn.Mode = InputOnly
	inOnly, err := Optimize(c, pi, optIn)
	if err != nil {
		t.Fatal(err)
	}
	// The subset technique cannot beat full reordering.
	if inOnly.PowerAfter < full.PowerAfter-1e-30 {
		t.Errorf("input-only (%g) beat full reordering (%g)", inOnly.PowerAfter, full.PowerAfter)
	}
	// And both improve on the original (or at worst leave it unchanged).
	if inOnly.PowerAfter > inOnly.PowerBefore+1e-30 {
		t.Error("input-only optimization increased power")
	}
}

func TestInputOnlyKeepsInstance(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	optIn := DefaultOptions()
	optIn.Mode = InputOnly
	rep, err := Optimize(c, rcaStats(c), optIn)
	if err != nil {
		t.Fatal(err)
	}
	// Every optimized gate's configuration must lie in the same instance
	// orbit as the original (same physical layout).
	orig := map[string]string{}
	for _, g := range c.Gates {
		orig[g.Name] = g.Cell.ConfigKey()
	}
	for _, g := range rep.Circuit.Gates {
		found := false
		for _, inst := range g.Cell.Instances() {
			inOrbit := map[string]bool{}
			for _, cfg := range inst.Configs {
				inOrbit[cfg.ConfigKey()] = true
			}
			if inOrbit[orig[g.Name]] && inOrbit[g.Cell.ConfigKey()] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("instance %s left its layout orbit: %s → %s", g.Name, orig[g.Name], g.Cell.ConfigKey())
		}
	}
}

func TestDelayRuleModeRuns(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	opt := DefaultOptions()
	opt.Mode = DelayRule
	rep, err := Optimize(c, rcaStats(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Delay-optimized circuits may pay power; just confirm function
	// preservation and a well-formed result.
	if err := rep.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	val1, err := c.Eval(allTrue(c))
	if err != nil {
		t.Fatal(err)
	}
	val2, err := rep.Circuit.Eval(allTrue(c))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Outputs {
		if val1[o] != val2[o] {
			t.Fatalf("delay-rule reordering changed output %s", o)
		}
	}
}

func allTrue(c *circuit.Circuit) map[string]bool {
	m := map[string]bool{}
	for _, in := range c.Inputs {
		m[in] = true
	}
	return m
}

func TestWorstNeverBelowBestPerGate(t *testing.T) {
	// Per-gate sanity via the circuit: Maximize must produce ≥ power of
	// Minimize under identical statistics (strict inequality checked in
	// TestBestAndWorstSpread).
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	best, worst, err := BestAndWorst(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ab, err := core.AnalyzeCircuit(best.Circuit, pi, DefaultOptions().Params)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := core.AnalyzeCircuit(worst.Circuit, pi, DefaultOptions().Params)
	if err != nil {
		t.Fatal(err)
	}
	for name, pb := range ab.PerGate {
		if pw := aw.PerGate[name]; pb > pw+1e-30 {
			t.Errorf("instance %s: best power %g above worst %g", name, pb, pw)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	if _, err := Optimize(c, map[string]stoch.Signal{}, DefaultOptions()); err == nil {
		t.Error("missing PI stats accepted")
	}
	bad := DefaultOptions()
	bad.Params = core.Params{}
	if _, err := Optimize(c, rcaStats(c), bad); err == nil {
		t.Error("invalid params accepted")
	}
	weird := DefaultOptions()
	weird.Mode = Mode(9)
	if _, err := Optimize(c, rcaStats(c), weird); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if Full.String() != "full" || InputOnly.String() != "input-only" || DelayRule.String() != "delay-rule" {
		t.Error("mode strings wrong")
	}
}

// BenchmarkOptimizeAdder2 runs the optimizer once per mode, so the
// delay-aware commit path is measured next to the wavefront search.
func BenchmarkOptimizeAdder2(b *testing.B) {
	c := testCircuit(b, adder2BLIF)
	pi := rcaStats(c)
	for _, mode := range []Mode{Full, InputOnly, DelayRule, DelayNeutral} {
		b.Run(mode.String(), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Mode = mode
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(c, pi, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDelayNeutralNeverSlower(t *testing.T) {
	// The future-work mode: power goes down while the critical path is
	// guaranteed not to grow.
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	opt := DefaultOptions()
	opt.Mode = DelayNeutral
	rep, err := Optimize(c, pi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerAfter > rep.PowerBefore+1e-30 {
		t.Errorf("delay-neutral mode increased power: %g -> %g", rep.PowerBefore, rep.PowerAfter)
	}
	d0, err := delay.CircuitDelay(c, opt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := delay.CircuitDelay(rep.Circuit, opt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Delay > d0.Delay*(1+1e-9) {
		t.Errorf("delay-neutral mode slowed the circuit: %g -> %g", d0.Delay, d1.Delay)
	}
}

func TestDelayNeutralBetweenOriginalAndFull(t *testing.T) {
	// Constrained optimization can never beat unconstrained.
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	full, err := Optimize(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Mode = DelayNeutral
	neutral, err := Optimize(c, pi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if neutral.PowerAfter < full.PowerAfter-1e-30 {
		t.Errorf("constrained (%g) beat unconstrained (%g)", neutral.PowerAfter, full.PowerAfter)
	}
}

func TestDelayNeutralRequiresValidDelayParams(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	opt := DefaultOptions()
	opt.Mode = DelayNeutral
	opt.Delay = delay.Params{}
	if _, err := Optimize(c, rcaStats(c), opt); err == nil {
		t.Error("invalid delay params accepted in delay-neutral mode")
	}
}

func TestOptimizeRejectsInvalidCircuit(t *testing.T) {
	nandCell := library.Default().MustCell("nand2").Proto
	loop := &circuit.Circuit{
		Name:    "loop",
		Inputs:  []string{"x"},
		Outputs: []string{"a"},
		Gates: []*circuit.Instance{
			{Name: "g1", Cell: nandCell, Pins: []string{"x", "b"}, Out: "a"},
			{Name: "g2", Cell: nandCell, Pins: []string{"x", "a"}, Out: "b"},
		},
	}
	pi := map[string]stoch.Signal{"x": {P: 0.5, D: 1}}
	if _, err := Optimize(loop, pi, DefaultOptions()); err == nil {
		t.Error("cyclic circuit accepted")
	}
}

func TestReductionZeroPowerBefore(t *testing.T) {
	r := &Report{PowerBefore: 0, PowerAfter: 0}
	if r.Reduction() != 0 {
		t.Error("zero-power reduction not zero")
	}
}

func TestBestAndWorstPropagatesErrors(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	if _, _, err := BestAndWorst(c, map[string]stoch.Signal{}, DefaultOptions()); err == nil {
		t.Error("missing stats accepted")
	}
}

func TestModeStringUnknown(t *testing.T) {
	if s := Mode(42).String(); s != "Mode(42)" {
		t.Errorf("unknown mode string = %q", s)
	}
	if DelayNeutral.String() != "delay-neutral" {
		t.Error("delay-neutral mode string wrong")
	}
}

func TestOptimizeZeroActivityChangesNothingHarmful(t *testing.T) {
	// All-quiet inputs: every configuration has zero power; the optimizer
	// must not error and must keep power at zero.
	c := testCircuit(t, adder2BLIF)
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 0}
	}
	rep, err := Optimize(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerAfter != 0 || rep.PowerBefore != 0 {
		t.Errorf("zero-activity circuit has power %g -> %g", rep.PowerBefore, rep.PowerAfter)
	}
}
