package sim

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/mcnc"
	"repro/internal/reorder"
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
	p, err := Compile(circ, zeroParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(stim)
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

// TestParamsValidate: the bit-parallel engine is valid in every delay
// mode; an unknown engine, a negative tick or a unit delay that is not a
// positive, finite duration is rejected.
func TestParamsValidate(t *testing.T) {
	for _, mode := range []DelayMode{UnitDelay, ElmoreDelay, ZeroDelay} {
		prm := DefaultParams()
		prm.Mode = mode
		if err := prm.Validate(); err != nil {
			t.Fatalf("Params.Validate rejected bit-parallel with %s delay: %v", mode.name(), err)
		}
	}
	prm := DefaultParams()
	prm.Engine = BitParallel + 1
	if err := prm.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
	prm.Engine = BitParallel
	prm.Tick = -1
	if err := prm.Validate(); err == nil {
		t.Fatal("negative tick accepted")
	}
	for _, unit := range []float64{0, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		prm := DefaultParams()
		prm.Mode = UnitDelay
		prm.Unit = unit
		if err := prm.Validate(); err == nil {
			t.Errorf("unit delay %v accepted", unit)
		}
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
// TestMeasureReductionMotivationGate cross-check under 64 packed vectors:
// every configuration of the gate measures visibly different power under
// the same stimulus.
func TestMeasureReductionPackedMotivationGate(t *testing.T) {
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	cfgs := g.AllConfigs()
	stats := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 1e4}, "a2": {P: 0.5, D: 1e5}, "b": {P: 0.5, D: 1e6},
	}
	const horizon = 2e-3
	// Measure every configuration under the same seeded stimulus; the
	// spread must be visible.
	powers := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		p, err := CompileFor(oai21Circuit(cfg), zeroParams())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		res, err := RunVectors(p, ExponentialDrawer([]string{"a1", "a2", "b"}, stats, horizon, rng), 64, 64, horizon)
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

// TestTemplatesExhaustive runs the op template of every configuration of
// every library cell on all 2ⁿ input minterms at once: pin i holds
// variable i's truth table, so lane m of every register is its value on
// minterm m. The template is instantiated through lowerGate with the pins
// in reverse register order behind a block of unrelated registers, so
// the slot renaming is exercised too. The output must equal the gate's
// function, and internal node k must settle to H | (s &^ (H|G)) with its
// state s all-zeros and all-ones — exact op semantics, independent of
// any random stimulus.
func TestTemplatesExhaustive(t *testing.T) {
	for _, cell := range library.Default().Cells() {
		for _, cfg := range cell.Proto.AllConfigs() {
			checkTemplate(t, cfg, cfg)
		}
	}
}

// TestPairTemplatesExhaustive holds the template of every ordered pair of
// distinct configurations of every library cell to the same exact check:
// one output, then the first configuration's internal nodes and the
// second's, each against its own graph.
func TestPairTemplatesExhaustive(t *testing.T) {
	for _, cell := range library.Default().Cells() {
		cfgs := cell.Proto.AllConfigs()
		for _, a := range cfgs {
			for _, b := range cfgs {
				if a != b {
					checkTemplate(t, a, b)
				}
			}
		}
	}
}

// TestPairTemplateErrors: a pair template needs the same pins and the
// same output function.
func TestPairTemplateErrors(t *testing.T) {
	nand := gate.MustNew("sim_pair_nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	nor := gate.MustNew("sim_pair_nor2", []string{"a", "b"}, sp.MustParse("p(a,b)"))
	swapped := gate.MustNew("sim_pair_nand2", []string{"b", "a"}, sp.MustParse("s(a,b)"))
	if _, err := pairTemplateOf(nand, nor); err == nil || !strings.Contains(err.Error(), "different output functions") {
		t.Errorf("nand2/nor2 pair: %v, want an output-function error", err)
	}
	if _, err := pairTemplateOf(nand, swapped); err == nil || !strings.Contains(err.Error(), "pins") {
		t.Errorf("pair with permuted pins: %v, want a pin error", err)
	}
}

// checkTemplate runs the template of configurations a and b (a's own
// template when b == a) through the exhaustive minterm check.
func checkTemplate(t *testing.T, a, b *gate.Gate) {
	t.Helper()
	name := a.Name + " " + a.ConfigKey()
	cfgs := []*gate.Gate{a}
	if b != a {
		name += " / " + b.ConfigKey()
		cfgs = append(cfgs, b)
	}
	// want lists every internal node the template must hold, in order.
	type node struct {
		gr    *gate.Graph
		nk    gate.NodeID
		owner int8
	}
	var want []node
	var outDeg [2]int
	for ci, cfg := range cfgs {
		gr, err := cfg.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		owner := int8(ci)
		if len(cfgs) == 1 {
			owner = -1
		}
		for _, nk := range gr.InternalNodes() {
			want = append(want, node{gr, nk, owner})
		}
		outDeg[ci] = gr.Degree(gate.Y)
	}
	if len(cfgs) == 1 {
		outDeg[1] = outDeg[0]
	}
	n := len(a.Inputs)
	lw := &lowering{numRegs: 5}
	netReg := map[string]int32{}
	for i := n - 1; i >= 0; i-- {
		netReg[a.Inputs[i]] = lw.alloc()
	}
	inst := &circuit.Instance{Name: "u1", Cell: a, Pins: a.Inputs, Out: "y"}
	tmpl, m, err := lw.lowerGate(inst, b, netReg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if again, err := pairTemplateOf(a, b); err != nil || again != tmpl {
		t.Fatalf("%s: template not memoized (%p, %p, %v)", name, tmpl, again, err)
	}
	if len(tmpl.internal) != len(want) || tmpl.outDeg != outDeg {
		t.Fatalf("%s: template has %d internal nodes and output degrees %v, graphs %d and %v",
			name, len(tmpl.internal), tmpl.outDeg, len(want), outDeg)
	}
	gr0, _ := a.Graph()
	f := gr0.OutputFunc()
	hs, gs := make([]logic.Func, len(want)), make([]logic.Func, len(want))
	for k, nd := range want {
		hs[k], gs[k] = nd.gr.H(nd.nk), nd.gr.G(nd.nk)
	}
	for _, s := range []uint64{0, ^uint64(0)} {
		plane := make([]uint64, lw.numRegs)
		plane[1] = ^uint64(0)
		for i, pin := range a.Inputs {
			var v uint64
			for mt := uint(0); mt < 64; mt++ {
				if mt>>i&1 == 1 {
					v |= 1 << mt
				}
			}
			plane[netReg[pin]] = v
		}
		for k := range want {
			plane[m.reg(tmpl.internal[k].state)] = s
		}
		execOps(lw.ops, plane)
		for mt := uint(0); mt < 1<<n; mt++ {
			if got := plane[m.reg(tmpl.out)]>>mt&1 == 1; got != f.Eval(mt) {
				t.Errorf("%s minterm %d: output %v, want %v", name, mt, got, f.Eval(mt))
			}
			for k, nd := range want {
				h, g := hs[k].Eval(mt), gs[k].Eval(mt)
				want := h || (s != 0 && !(h || g))
				if got := plane[m.reg(tmpl.internal[k].value)]>>mt&1 == 1; got != want {
					t.Errorf("%s minterm %d state %#x: node %s settles to %v, want %v",
						name, mt, s, nd.gr.NodeName(nd.nk), got, want)
				}
				if tn := tmpl.internal[k]; tn.degree != nd.gr.Degree(nd.nk) || tn.owner != nd.owner {
					t.Errorf("%s: node %s degree %d owner %d, want %d and %d",
						name, nd.gr.NodeName(nd.nk), tn.degree, tn.owner, nd.gr.Degree(nd.nk), nd.owner)
				}
			}
		}
	}
}

// TestTemplatesConcurrent builds the templates of a cold orbit, alone and
// in pairs, from several goroutines at once (run it under -race): every
// caller must get the one stored template per configuration or pair, and
// that template must pass the exhaustive check.
func TestTemplatesConcurrent(t *testing.T) {
	cfgs := gate.MustNew("sim_concurrent_aoi221", []string{"a1", "a2", "b1", "b2", "c"},
		sp.MustParse("p(s(a1,a2),s(b1,b2),c)")).AllConfigs()
	// Each configuration k is built alone and paired with configuration
	// k+1, so the pair memo is filled concurrently too.
	pairOf := func(k int) (a, b *gate.Gate) { return cfgs[k], cfgs[(k+1)%len(cfgs)] }
	got := make([][]*gateTemplate, 4)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*gateTemplate, 2*len(cfgs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, cfg := range cfgs {
				tmpl, err := templateOf(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				pair, err := pairTemplateOf(pairOf(k))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][k], got[w][len(cfgs)+k] = tmpl, pair
			}
		}()
	}
	wg.Wait()
	for k, cfg := range cfgs {
		for w := range got {
			if got[w][k] != got[0][k] || got[w][len(cfgs)+k] != got[0][len(cfgs)+k] {
				t.Fatalf("%s: goroutines %d and 0 got different templates", cfg.ConfigKey(), w)
			}
		}
		checkTemplate(t, cfg, cfg)
		a, b := pairOf(k)
		checkTemplate(t, a, b)
	}
}

// TestKernelsAgree runs one op stream holding every opcode, with operands
// and destinations drawn at random (aliasing included), over random
// register files: execOps on each plane and execOpsPlanes4 on four planes
// at once must leave identical planes, and every op must match its
// definition below.
func TestKernelsAgree(t *testing.T) {
	ref := map[opCode]func(a, b, c uint64) uint64{
		opAnd:    func(a, b, _ uint64) uint64 { return a & b },
		opOr:     func(a, b, _ uint64) uint64 { return a | b },
		opAndNot: func(a, b, _ uint64) uint64 { return a &^ b },
		opNot:    func(a, _, _ uint64) uint64 { return ^a },
		opOrNot:  func(a, b, _ uint64) uint64 { return a | ^b },
		opMux:    func(a, b, c uint64) uint64 { return (a & b) | (c &^ a) },
		opKeep:   func(a, b, c uint64) uint64 { return a | (b &^ c) },
	}
	const R = 24
	rng := rand.New(rand.NewSource(5))
	var ops []bitOp
	for i := 0; i < 400; i++ {
		code := opCode(i % len(ref)) // every opcode, many times over
		if i >= 2*len(ref) {
			code = opCode(rng.Intn(len(ref)))
		}
		ops = append(ops, bitOp{code: code, dst: int32(2 + rng.Intn(R-2)),
			a: int32(rng.Intn(R)), b: int32(rng.Intn(R)), c: int32(rng.Intn(R))})
	}
	for trial := 0; trial < 20; trial++ {
		regs := make([]uint64, 4*R)
		for i := range regs {
			regs[i] = rng.Uint64()
		}
		want := append([]uint64(nil), regs...)
		for w := 0; w < 4; w++ {
			plane := want[w*R : w*R+R]
			for _, op := range ops {
				plane[op.dst] = ref[op.code](plane[op.a], plane[op.b], plane[op.c])
			}
		}
		single := append([]uint64(nil), regs...)
		for w := 0; w < 4; w++ {
			execOps(ops, single[w*R:w*R+R])
		}
		execOpsPlanes4(ops, regs, R)
		for i := range want {
			if single[i] != want[i] {
				t.Fatalf("trial %d: execOps register %d of plane %d = %#x, want %#x", trial, i%R, i/R, single[i], want[i])
			}
			if regs[i] != want[i] {
				t.Fatalf("trial %d: execOpsPlanes4 register %d of plane %d = %#x, want %#x", trial, i%R, i/R, regs[i], want[i])
			}
		}
	}
}

// TestEmbeddedOpCounts pins the summed op count of both engines' programs
// over the embedded benchmarks, and of the fused unit-delay programs of
// their full-mode best/worst pairs. A change to the lowering that emits
// more ops fails here instead of surfacing as benchmark drift; one that
// emits fewer updates the pins.
func TestEmbeddedOpCounts(t *testing.T) {
	const wantOps, wantPairOps = 1896, 2443
	lib := library.Default()
	var zero, timed, pairs, twoPrograms int
	for _, name := range mcnc.EmbeddedNames() {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(c, zeroParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tp, err := CompileTimed(c, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zero += p.NumOps()
		timed += tp.NumOps()

		stats := make(map[string]stoch.Signal, len(c.Inputs))
		for _, in := range c.Inputs {
			stats[in] = stoch.Signal{P: 0.5, D: 3e5}
		}
		best, worst, err := reorder.BestAndWorst(c, stats, reorder.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pair, _, _, err := compileTimedPair(best.Circuit, worst.Circuit, DefaultParams())
		if err != nil || pair == nil {
			t.Fatalf("%s: pair program %v, %v", name, pair, err)
		}
		pairs += pair.NumOps()
		for _, pc := range []*circuit.Circuit{best.Circuit, worst.Circuit} {
			tp, err := CompileTimed(pc, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			twoPrograms += tp.NumOps()
		}
	}
	if zero != wantOps || timed != wantOps {
		t.Errorf("embedded benchmarks compile to %d zero-delay and %d timed ops, want %d each", zero, timed, wantOps)
	}
	if pairs != wantPairOps {
		t.Errorf("embedded full-mode best/worst pairs compile to %d fused ops (%d as two programs), want %d", pairs, twoPrograms, wantPairOps)
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
