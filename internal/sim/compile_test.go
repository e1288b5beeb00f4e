package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/sp"
	"repro/internal/stoch"
)

func zeroParams() Params {
	prm := DefaultParams()
	prm.Mode = ZeroDelay
	return prm
}

// TestCompiledChargeRetention: the nand2 charge-retention scenario of
// TestChargeRetentionSuppressesInternalActivity, on the compiled engine —
// with the top transistor off, toggling the bottom input moves neither
// the output nor (after the first discharge) the internal node.
func TestCompiledChargeRetention(t *testing.T) {
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	circ := nandCircuit(nandCell)
	waves := map[string]*stoch.Waveform{
		"a": {Initial: false},
		"b": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true},
		}},
	}
	stim, err := stoch.PackWaveforms(circ.Inputs, []map[string]*stoch.Waveform{waves}, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPacked(circ, stim, zeroParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.NetTransitions["z"] != 0 {
		t.Errorf("output moved %d times with the stack off", res.NetTransitions["z"])
	}
	if res.InternalFlips > 1 {
		t.Errorf("internal flips = %d, want ≤ 1 (charge retention)", res.InternalFlips)
	}
}

// TestCompileRejectsWideGate: cells beyond six inputs have no one-word
// truth table and must be rejected with a clear error.
func TestCompileRejectsWideGate(t *testing.T) {
	pins := []string{"a", "b", "c", "d", "e", "f", "g"}
	wide := gate.MustNew("nand7", pins, sp.MustParse("s(a,b,c,d,e,f,g)"))
	c := &circuit.Circuit{
		Name:    "wide",
		Inputs:  pins,
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: wide, Pins: pins, Out: "z"}},
	}
	if _, err := Compile(c, zeroParams()); err == nil {
		t.Fatal("7-input gate compiled")
	}
}

// TestRunPackedRejectsNonZeroDelay: the zero-delay packed entry point
// must refuse unit- and Elmore-delay parameter sets (they need the timed
// engine's shared-clock stimulus), while Params.Validate accepts the
// bit-parallel engine in every delay mode since the timed backend exists.
func TestRunPackedRejectsNonZeroDelay(t *testing.T) {
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := nandCircuit(nandCell)
	waves := map[string]*stoch.Waveform{"a": {Initial: false}, "b": {Initial: false}}
	stim, err := stoch.PackWaveforms(c.Inputs, []map[string]*stoch.Waveform{waves}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPacked(c, stim, DefaultParams()); err == nil {
		t.Fatal("unit-delay parameters accepted by the zero-delay packed engine")
	}
	prm := DefaultParams()
	if err := prm.Validate(); err != nil {
		t.Fatalf("Params.Validate rejected bit-parallel with unit delay: %v", err)
	}
	prm.Engine = BitParallel + 1
	if err := prm.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
	prm.Engine = BitParallel
	prm.Tick = -1
	if err := prm.Validate(); err == nil {
		t.Fatal("negative tick accepted")
	}
}

// TestCompiledProgramStats: the compiled program is dense and levelized.
func TestCompiledProgramStats(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(c, zeroParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumOps() == 0 || p.NumRegs() <= 2 {
		t.Fatalf("degenerate program: %d ops, %d regs", p.NumOps(), p.NumRegs())
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() != stats.Depth {
		t.Errorf("program levels %d, circuit depth %d", p.Levels(), stats.Depth)
	}
}

// TestMeasureReductionPackedMotivationGate mirrors the single-vector
// MeasureReduction cross-check under 64 packed vectors: the model-chosen
// best configuration must also measure better.
func TestMeasureReductionPackedMotivationGate(t *testing.T) {
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	cfgs := g.AllConfigs()
	stats := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 1e4}, "a2": {P: 0.5, D: 1e5}, "b": {P: 0.5, D: 1e6},
	}
	rng := rand.New(rand.NewSource(17))
	const horizon = 2e-3
	stim, err := GeneratePackedWaveforms([]string{"a1", "a2", "b"}, stats, horizon, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Measure every configuration; the spread must be visible and
	// deterministic under the shared stimulus.
	powers := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		res, err := RunPacked(oai21Circuit(cfg), stim, zeroParams())
		if err != nil {
			t.Fatal(err)
		}
		powers[i] = res.Power
	}
	min, max := powers[0], powers[0]
	for _, p := range powers {
		min = math.Min(min, p)
		max = math.Max(max, p)
	}
	if min <= 0 || (max-min)/max < 0.02 {
		t.Errorf("configuration spread too small: min %g max %g", min, max)
	}
}

// nandCircuit wraps one two-input cell as a circuit with inputs a, b and
// output z.
func nandCircuit(cell *gate.Gate) *circuit.Circuit {
	return &circuit.Circuit{
		Name:    "one2",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: cell, Pins: []string{"a", "b"}, Out: "z"}},
	}
}
