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

// TestElmoreQuantizationBound verifies the documented tick-resolution
// error bound on every embedded benchmark: with the automatic tick (the
// fastest gate delay / elmoreTickDiv) every gate's quantized delay is
// within half a tick of its Elmore delay — the clamp to one tick never
// engages because the fastest delay spans elmoreTickDiv ticks.
func TestElmoreQuantizationBound(t *testing.T) {
	lib := library.Default()
	prm := DefaultParams()
	prm.Mode = ElmoreDelay
	for _, name := range mcnc.EmbeddedNames() {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		order, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		delays, err := gateDelaySeconds(order, c.Fanout(), prm)
		if err != nil {
			t.Fatal(err)
		}
		tick, err := resolveTick(prm, delays)
		if err != nil {
			t.Fatal(err)
		}
		for gi, d := range delays {
			dq := float64(quantizeDelay(d, tick)) * tick
			if err := math.Abs(dq - d); err > tick/2+1e-18 {
				t.Errorf("%s gate %d: quantized delay %g vs %g, error %g > tick/2 (%g)",
					name, gi, dq, d, err, tick/2)
			}
		}
		// The documented per-stage relative bound on the fastest gate.
		min := math.Inf(1)
		for _, d := range delays {
			min = math.Min(min, d)
		}
		if maxRel := (tick / 2) / min; maxRel > 1.0/(2*elmoreTickDiv)+1e-12 {
			t.Errorf("%s: fastest-gate relative error bound %g exceeds 1/(2·%d)", name, maxRel, elmoreTickDiv)
		}
	}
}

// TestTimedTickRefinementConvergence is the bounded-divergence check for
// quantized Elmore: refining the tick by 16× moves the measured 64-lane
// energy only marginally, so the default resolution sits inside the
// documented error regime rather than in a quantization artifact.
func TestTimedTickRefinementConvergence(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(404))
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	const horizon = 1e-4
	laneWaves, err := GenerateLaneWaveforms(c.Inputs, stats, horizon, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	prm.Mode = ElmoreDelay
	energyAt := func(tick float64) float64 {
		p := prm
		p.Tick = tick
		prog, err := CompileTimed(c, p)
		if err != nil {
			t.Fatal(err)
		}
		stim, err := prog.PackTimed(laneWaves, horizon)
		if err != nil {
			t.Fatal(err)
		}
		e, err := prog.RunEnergy(stim)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	coarse, err := CompileTimed(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	base := energyAt(coarse.Tick())
	fine := energyAt(coarse.Tick() / 16)
	if base <= 0 || fine <= 0 {
		t.Fatalf("degenerate energies: %g / %g", base, fine)
	}
	if rel := math.Abs(base-fine) / fine; rel > 0.10 {
		t.Errorf("default tick diverges %.1f%% from 16x-refined grid (want ≤ 10%%)", 100*rel)
	}
}

// TestTimedGlitchGenerationAndFiltering pins the timed engine's
// reconvergence semantics: a three-inverter skew glitches the NAND
// output, while a skew of exactly one gate delay is filtered by the
// sample-at-fire rule.
func TestTimedGlitchGenerationAndFiltering(t *testing.T) {
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	waves := map[string]*stoch.Waveform{
		"x": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true}, {Time: 4e-6, Value: false},
		}},
	}
	build := func(invs int) *circuit.Circuit {
		c := &circuit.Circuit{Name: "glitch", Inputs: []string{"x"}, Outputs: []string{"z"}}
		prev := "x"
		for i := 0; i < invs; i++ {
			out := "n" + string(rune('1'+i))
			if i == invs-1 {
				out = "nx"
			}
			c.Gates = append(c.Gates, &circuit.Instance{
				Name: "i" + string(rune('1'+i)), Cell: invCell, Pins: []string{prev}, Out: out,
			})
			prev = out
		}
		c.Gates = append(c.Gates, &circuit.Instance{
			Name: "g1", Cell: nandCell, Pins: []string{"x", prev}, Out: "z",
		})
		return c
	}
	run := func(c *circuit.Circuit) *Result {
		res, err := Run(c, waves, 6e-6, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(build(3)); res.NetTransitions["z"] == 0 {
		t.Error("no glitches on a three-delay reconvergent skew")
	} else if res.NetTransitions["z"]%2 != 0 {
		t.Errorf("glitch count %d is odd: z must return to 1", res.NetTransitions["z"])
	}
	if res := run(build(1)); res.NetTransitions["z"] != 0 {
		t.Errorf("one-delay skew produced %d transitions; sample-at-fire must filter it", res.NetTransitions["z"])
	}
}

// TestTimedChargeRetention: the nand2 charge-retention scenario on the
// timed compiled engine — with the top transistor off, toggling the
// bottom input moves neither the output nor (after the first discharge)
// the internal node.
func TestTimedChargeRetention(t *testing.T) {
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	circ := nandCircuit(nandCell)
	waves := map[string]*stoch.Waveform{
		"a": {Initial: false},
		"b": {Initial: false, Events: []stoch.Event{
			{Time: 1e-6, Value: true}, {Time: 2e-6, Value: false},
			{Time: 3e-6, Value: true},
		}},
	}
	prog, err := CompileTimed(circ, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	stim, err := prog.PackTimed([]map[string]*stoch.Waveform{waves}, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(stim)
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

// TestCompileTimedErrors: zero-delay parameter sets, wide gates and
// mismatched stimulus ticks must all be rejected with clear errors.
func TestCompileTimedErrors(t *testing.T) {
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := nandCircuit(nandCell)
	if _, err := CompileTimed(c, zeroParams()); err == nil {
		t.Error("zero-delay parameters accepted by CompileTimed")
	}
	pins := []string{"a", "b", "c", "d", "e", "f", "g"}
	wide := gate.MustNew("nand7", pins, sp.MustParse("s(a,b,c,d,e,f,g)"))
	wc := &circuit.Circuit{
		Name:    "wide",
		Inputs:  pins,
		Outputs: []string{"z"},
		Gates:   []*circuit.Instance{{Name: "u1", Cell: wide, Pins: pins, Out: "z"}},
	}
	if _, err := CompileTimed(wc, DefaultParams()); err == nil {
		t.Error("7-input gate compiled")
	}
	prog, err := CompileTimed(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	waves := map[string]*stoch.Waveform{"a": {Initial: false}, "b": {Initial: false}}
	stim, err := stoch.PackTimedWaveforms(c.Inputs, []map[string]*stoch.Waveform{waves}, 1e-6, prog.Tick()*2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(stim); err == nil {
		t.Error("stimulus with a mismatched tick accepted")
	}
	if _, err := ReductionTimed(c, c, []map[string]*stoch.Waveform{waves}, 1e-6, zeroParams()); err == nil {
		t.Error("ReductionTimed accepted zero delay")
	}
}

// TestClusterAlignmentExact: packing with the program's settle-window
// guard rigidly shifts lane clusters onto shared slots; every metered
// quantity must be bit-identical to running the same waveforms on the
// raw, unaligned tick axis — the time-invariance property the aligned
// packer's throughput rests on.
func TestClusterAlignmentExact(t *testing.T) {
	lib := library.Default()
	for _, name := range []string{"rca8", "csel4"} {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(name)) * 101))
		stats := make(map[string]stoch.Signal, len(c.Inputs))
		for _, in := range c.Inputs {
			stats[in] = stoch.Signal{P: 0.3 + 0.4*rng.Float64(), D: 1e5 + 3e5*rng.Float64()}
		}
		const horizon = 1e-4
		laneWaves, err := GenerateLaneWaveforms(c.Inputs, stats, horizon, 32, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []DelayMode{UnitDelay, ElmoreDelay} {
			prm := DefaultParams()
			prm.Mode = mode
			prog, err := CompileTimed(c, prm)
			if err != nil {
				t.Fatal(err)
			}
			aligned, err := prog.PackTimed(laneWaves, horizon)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := stoch.PackTimedWaveforms(c.Inputs, laneWaves, horizon, prog.Tick(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if aligned.Guard == 0 {
				t.Fatalf("%s/%s: PackTimed produced an unaligned stimulus", name, mode.name())
			}
			ba, err := prog.RunLanes(aligned)
			if err != nil {
				t.Fatal(err)
			}
			br, err := prog.RunLanes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if ba.Energy != br.Energy {
				t.Errorf("%s/%s: aligned energy %g, raw %g", name, mode.name(), ba.Energy, br.Energy)
			}
			for l := 0; l < 32; l++ {
				if ba.LaneInternalFlips[l] != br.LaneInternalFlips[l] || ba.LaneOutputFlips[l] != br.LaneOutputFlips[l] {
					t.Fatalf("%s/%s lane %d: flips diverge under alignment", name, mode.name(), l)
				}
				if ba.LaneEnergy[l] != br.LaneEnergy[l] {
					t.Fatalf("%s/%s lane %d: energy diverges under alignment", name, mode.name(), l)
				}
			}
			for net, row := range ba.LaneNetTransitions {
				for l, n := range row {
					if br.LaneNetTransitions[net][l] != n {
						t.Fatalf("%s/%s net %s lane %d: %d vs %d transitions", name, mode.name(), net, l, n, br.LaneNetTransitions[net][l])
					}
				}
			}
			if ba.Steps >= br.Steps {
				t.Errorf("%s/%s: alignment did not condense instants (%d vs %d)", name, mode.name(), ba.Steps, br.Steps)
			}
		}
	}
}

// TestTimedProgramStats sanity-checks the compiled layout.
func TestTimedProgramStats(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTimed(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumOps() == 0 || p.NumRegs() <= 2 {
		t.Fatalf("degenerate program: %d ops, %d regs", p.NumOps(), p.NumRegs())
	}
	if p.MaxDelayTicks() != 1 {
		t.Errorf("unit-delay program has max delay %d ticks, want 1", p.MaxDelayTicks())
	}
	if p.Tick() != DefaultParams().Unit {
		t.Errorf("unit-delay auto tick %g, want the unit delay %g", p.Tick(), DefaultParams().Unit)
	}
	prm := DefaultParams()
	prm.Mode = ElmoreDelay
	pe, err := CompileTimed(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	if pe.MaxDelayTicks() < elmoreTickDiv {
		t.Errorf("Elmore program max delay %d ticks; the slowest gate must span ≥ %d", pe.MaxDelayTicks(), elmoreTickDiv)
	}
}

// TestLaneMaskMatchesMeteredLanes: a run with fewer than 64 lanes meters
// exactly the active lanes — the per-lane slices have Lanes entries and
// inactive word bits contribute nothing.
func TestLaneMaskMatchesMeteredLanes(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("c17", lib)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	const horizon = 1e-4
	const lanes = 5
	laneWaves, err := GenerateLaneWaveforms(c.Inputs, stats, horizon, lanes, rng)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileTimed(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	stim, err := prog.PackTimed(laneWaves, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := popcount(stim.LaneMask()), lanes; got != want {
		t.Fatalf("lane mask has %d bits for %d lanes", got, want)
	}
	br, err := prog.RunLanes(stim)
	if err != nil {
		t.Fatal(err)
	}
	if br.Lanes != lanes || len(br.LaneEnergy) != lanes {
		t.Fatalf("metered %d lanes (%d energies), want %d", br.Lanes, len(br.LaneEnergy), lanes)
	}
	var sum float64
	for _, e := range br.LaneEnergy {
		sum += e
	}
	if math.Abs(sum-br.Energy) > 1e-9*math.Max(br.Energy, 1e-30) {
		t.Fatalf("lane energies sum to %g, total %g", sum, br.Energy)
	}
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}
