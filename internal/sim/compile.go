package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/logic"
	"repro/internal/stoch"
)

// This file lowers a mapped circuit into flat word-op programs over dense
// register indices: the front end both compiled engines share (lowering)
// and the levelized zero-delay Program built on it (bitsim.go runs it;
// timed.go builds the timed program on the same front end). There is no
// map-based net lookup, heap scheduling or per-gate conducting-path
// flooding at run time — only straight-line code over register indices:
//
//   - Every net and every transistor-level node gets a register index.
//     An evaluation over W words (fixed per evaluation by the stimulus,
//     up to stoch.MaxWords) keeps W register planes in one plane-major
//     []uint64 file: plane w is regs[w·R:(w+1)·R] for R registers, and
//     bit l%64 of register r in plane l/64 is the node's value in Monte
//     Carlo lane l. The compiled program itself is width-agnostic — ops
//     name register indices within a plane, and the exec kernels run
//     them over one plane or four planes at a time.
//   - Each gate's output is its path function H_y; each internal node nk
//     settles to  new = H_nk | (prev &^ (H_nk|G_nk))  — driven nodes take
//     their rail value, undriven nodes retain charge. H and G are exactly
//     the conducting-path functions of Figure 2(b), so the compiled
//     semantics match conducting-path flooding (the reference oracle's
//     gate.Graph.NodeStateAt) bit for bit.
//   - The boolean functions are compiled once per gate configuration,
//     from their truth tables, into a template of word ops over local
//     slots (gateTemplate): AND, OR, ANDNOT, NOT, or-not a|^b, the
//     multiplexer (a&b)|(c&^a) and keep-charge a|(b&^c), the
//     internal-node update in one op. Each Shannon step branches on the
//     variable a cost estimate ranks cheapest, and subfunctions shared
//     across the gate's H and G functions compile once. The template is
//     memoized on the interned *gate.Gate; an instance only renames its
//     slots to registers. Evaluation is a single pass over the op array
//     with no maps, no interface dispatch and no allocation.
//
// Gates in the library have at most six inputs, so every truth table fits
// one uint64.

// maxCompiledInputs is the widest gate the compiler accepts: a truth
// table over more than 6 variables no longer fits a word.
const maxCompiledInputs = 6

// opCode is a word operation of the compiled program.
type opCode uint8

const (
	opAnd    opCode = iota // dst = a & b
	opOr                   // dst = a | b
	opAndNot               // dst = a &^ b
	opNot                  // dst = ^a
	opOrNot                // dst = a | ^b
	opMux                  // dst = (a & b) | (c &^ a): b where a is set, c elsewhere
	opKeep                 // dst = a | (b &^ c): drive a, else keep b unless c
)

// bitOp is one instruction: pure word arithmetic over register indices.
// Two-operand ops ignore c, and opNot ignores b too.
type bitOp struct {
	code    opCode
	dst     int32
	a, b, c int32
}

// meterKind classifies a metered node.
type meterKind uint8

const (
	meterInput    meterKind = iota // primary input net (counted, no energy)
	meterOutput                    // gate output net
	meterInternal                  // transistor-level internal node
)

// meterPoint is one node whose transitions the engine counts: the
// register holding the node's freshly computed value, the persistent
// register holding its value from the previous step, and the energy one
// transition dissipates in one lane (½·C·Vdd²; zero for inputs).
type meterPoint struct {
	valueReg int32
	stateReg int32
	kind     meterKind
	gate     int32   // index into lowering.gates; -1 for inputs
	net      string  // net name for inputs/outputs, "" for internal nodes
	energy   float64 // joules per transition per lane
}

// lowering is the netlist-to-word-op front end of both compiled engines:
// the primary inputs, the gates in topological order, the register file
// size, the op stream, the input registers and the meters. Program and
// TimedProgram embed it; they differ only in how a gate's output is held
// and in their per-gate bookkeeping.
//
// Meter order is part of each engine's results, because RunEnergy and
// assembleResult sum energy in meter order. The first len(inputs) meters
// are the primary inputs, in input order. Then, gate by gate in
// topological order, the zero-delay program appends the output meter
// before the internal meters, and the timed program the internal meters
// before the output meter. Another order changes the last bits of the
// energies.
type lowering struct {
	inputs  []string            // primary inputs, program order
	gates   []*circuit.Instance // topological order
	numRegs int
	ops     []bitOp
	inReg   []int32 // value register per primary input
	meters  []meterPoint
}

// NumOps returns the length of the compiled instruction stream.
func (lw *lowering) NumOps() int { return len(lw.ops) }

// NumRegs returns the register-file size one evaluation uses.
func (lw *lowering) NumRegs() int { return lw.numRegs }

// begin validates the capacitance constants and the circuit, takes its
// topological order and starts the lowering on it (start). It returns
// each lowered net's register, which the gates extend, and the circuit's
// fanout counts.
func (lw *lowering) begin(c *circuit.Circuit, cp core.Params) (netReg map[string]int32, fanout map[string]int, err error) {
	if err := cp.Validate(); err != nil {
		return nil, nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	return lw.start(c.Inputs, order), c.Fanout(), nil
}

// start reserves registers 0 and 1 for the constants all-zeros and
// all-ones and takes the gates in the given topological order. Every
// primary input then gets a value register and a meter that reads its
// state from the same register. It returns each lowered net's register.
func (lw *lowering) start(inputs []string, order []*circuit.Instance) map[string]int32 {
	lw.inputs = append([]string(nil), inputs...)
	lw.gates = order
	lw.numRegs = 2
	netReg := make(map[string]int32, len(inputs)+len(order))
	for _, in := range lw.inputs {
		r := lw.alloc()
		lw.inReg = append(lw.inReg, r)
		netReg[in] = r
		lw.meters = append(lw.meters, meterPoint{
			valueReg: r, stateReg: r, kind: meterInput, gate: -1, net: in,
		})
	}
	return netReg
}

// loadInitial loads plane w of a W-word block for the t=0 settle: the
// all-ones constant, then each input's initial word masked to the block's
// lanes, read through matchInputs' row map.
func (lw *lowering) loadInitial(plane, initial []uint64, inRow []int, W, w int, mask uint64) {
	plane[1] = ^uint64(0)
	for i, r := range lw.inReg {
		row := i
		if inRow != nil {
			row = inRow[i]
		}
		plane[r] = initial[row*W+w] & mask
	}
}

// bind maps a validated stimulus block onto the program's inputs — the
// prologue both engines share: inRow is matchInputs' row map (nil when
// the orders coincide) and masks[w] selects the active lanes of block
// word w.
func (lw *lowering) bind(b *stoch.Block) (inRow []int, masks [stoch.MaxWords]uint64, err error) {
	if inRow, err = matchInputs(lw.inputs, b.Inputs); err != nil {
		return nil, masks, err
	}
	for w := range b.WordWidth() {
		masks[w] = b.WordMask(w)
	}
	return inRow, masks, nil
}

// matchInputs maps program input order onto stimulus rows. A nil result
// means the orders coincide (the common case — stimulus is packed from
// the circuit's own input list), avoiding any per-run allocation. A
// stimulus naming an input on two rows is rejected: only one row could
// drive it, and the other row's toggles would be dropped.
func matchInputs(progInputs, stimInputs []string) ([]int, error) {
	if slices.Equal(progInputs, stimInputs) {
		return nil, nil
	}
	idx := make(map[string]int, len(stimInputs))
	for i, in := range stimInputs {
		if _, dup := idx[in]; dup {
			return nil, fmt.Errorf("sim: packed stimulus names input %q twice", in)
		}
		idx[in] = i
	}
	inRow := make([]int, len(progInputs))
	for i, in := range progInputs {
		row, ok := idx[in]
		if !ok {
			return nil, fmt.Errorf("sim: packed stimulus has no row for input %q", in)
		}
		inRow[i] = row
	}
	return inRow, nil
}

// alloc reserves a fresh register.
func (lw *lowering) alloc() int32 {
	r := int32(lw.numRegs)
	lw.numRegs++
	return r
}

// slotMap places one instance's template slots in the register file:
// the constants stay in registers 0 and 1, pin i reads register pins[i],
// and the template's own slots (internal-node states, then temporaries)
// occupy the block starting at base.
type slotMap struct {
	pins [maxCompiledInputs]int32
	n    int32 // pin count
	base int32
}

// reg returns the register of template slot s.
func (m *slotMap) reg(s int32) int32 {
	switch {
	case s < 2:
		return s
	case s < 2+m.n:
		return m.pins[s-2]
	}
	return m.base + s - 2 - m.n
}

// lowerGate appends gate g's ops: the template of g's configuration
// paired with cfg (pairTemplateOf; cfg == g.Cell for g's own template)
// with the slots renamed to g's pin registers and a fresh register block.
func (lw *lowering) lowerGate(g *circuit.Instance, cfg *gate.Gate, netReg map[string]int32) (*gateTemplate, slotMap, error) {
	var m slotMap
	t, err := pairTemplateOf(g.Cell, cfg)
	if err != nil {
		return nil, m, fmt.Errorf("sim: instance %s: %w", g.Name, err)
	}
	m.n = int32(len(g.Pins))
	for i, pin := range g.Pins {
		r, ok := netReg[pin]
		if !ok {
			return nil, m, fmt.Errorf("sim: instance %s reads unknown net %q", g.Name, pin)
		}
		m.pins[i] = r
	}
	m.base = int32(lw.numRegs)
	lw.numRegs += int(t.locals)
	for _, op := range t.ops {
		lw.ops = append(lw.ops, bitOp{code: op.code, dst: m.reg(op.dst), a: m.reg(op.a), b: m.reg(op.b), c: m.reg(op.c)})
	}
	return t, m, nil
}

// internalMeters appends the meters of gate gi's internal nodes.
func (lw *lowering) internalMeters(gi int, t *gateTemplate, m *slotMap, cp core.Params) {
	halfCV2 := 0.5 * cp.Vdd * cp.Vdd
	for _, nd := range t.internal {
		lw.meters = append(lw.meters, meterPoint{
			valueReg: m.reg(nd.value), stateReg: m.reg(nd.state), kind: meterInternal, gate: int32(gi),
			energy: halfCV2 * cp.Cj * float64(nd.degree),
		})
	}
}

// outputEnergy is the energy one transition of a gate's output net
// dissipates in one lane: ½·C·Vdd² over the output node's diffusion
// capacitance (degree terminals) plus the load of its fanout.
func outputEnergy(cp core.Params, degree, fanout int) float64 {
	halfCV2 := 0.5 * cp.Vdd * cp.Vdd
	return halfCV2 * (cp.Cj*float64(degree) + cp.OutputLoad(fanout))
}

// Program is a circuit compiled for the bit-parallel engine. It is
// immutable after Compile and safe for concurrent Run calls (register
// files and count slices are pooled per program, so steady-state runs do
// not allocate).
type Program struct {
	lowering
	levels int // logic depth of the levelized op stream, for reports

	scratch sync.Pool // *runScratch
}

// Levels returns the circuit's logic depth (gate levels) — the program is
// emitted level by level, so ops of one level never read results of the
// same level.
func (p *Program) Levels() int { return p.levels }

// Compile lowers the circuit into a bit-parallel program using the
// capacitance constants of prm (prm.Mode is ignored: the compiled engine
// is zero-delay by construction).
func Compile(c *circuit.Circuit, prm Params) (*Program, error) {
	p := &Program{}
	netReg, fanout, err := p.begin(c, prm.Cap)
	if err != nil {
		return nil, err
	}
	// Each step compares every input with its value one step earlier,
	// which needs a state register of its own.
	for i := range p.meters {
		p.meters[i].stateReg = p.alloc()
	}

	level := make(map[string]int, len(netReg)+len(p.gates))
	for gi, g := range p.gates {
		t, m, err := p.lowerGate(g, g.Cell, netReg)
		if err != nil {
			return nil, err
		}
		gl := 0
		for _, pin := range g.Pins {
			gl = max(gl, level[pin])
		}
		level[g.Out] = gl + 1
		p.levels = max(p.levels, gl+1)

		// Output node: a complementary gate always drives y, so y = H_y.
		ry := m.reg(t.out)
		netReg[g.Out] = ry
		p.meters = append(p.meters, meterPoint{
			valueReg: ry, stateReg: p.alloc(), kind: meterOutput, gate: int32(gi), net: g.Out,
			energy: outputEnergy(prm.Cap, t.outDeg[0], fanout[g.Out]),
		})
		p.internalMeters(gi, t, &m, prm.Cap)
	}
	return p, nil
}

// gateTemplate is the word-op program of one gate configuration, or of a
// pair of configurations of one cell, over local slots: 0 and 1 hold the
// constants all-zeros and all-ones, 2 to 1+n the gate's n pins in Inputs
// order, the next len(internal) slots the internal nodes' state, and the
// rest the temporaries the ops write. Every instance of the configuration
// (or pair) runs the same ops; lowerGate only renames the slots. The
// settled value of internal node k is H | (state_k &^ (H|G)) — a driven
// node takes its rail value, an undriven one keeps its charge — and the
// output is H_y. The output compiles first, then each configuration's
// internal nodes in turn, all through one Shannon memo, so a pair template
// computes the output once and shares every subfunction the two
// configurations have in common.
type gateTemplate struct {
	locals   int32   // state slots plus temporaries: the per-instance block
	ops      []bitOp // over local slots, dependencies first
	out      int32   // slot of the output y
	outDeg   [2]int  // the output node's degree in each configuration, for its capacitance
	internal []templateNode
}

// templateNode is one internal node of a template, in the order of
// gate.Graph.InternalNodes, the first configuration's before the
// second's.
type templateNode struct {
	value  int32 // slot of the settled value
	state  int32 // slot of the value one step earlier
	degree int   // terminals on the node, for its capacitance
	owner  int8  // the pair template's configuration (0 or 1) the node belongs to; -1 in a single configuration's template
}

// gateTemplates memoizes each configuration's template, and
// pairTemplates each pair's. Package gate interns configurations (one
// *gate.Gate per configuration), so the pointer is the identity, as in
// core's power-model and delay's path templates.
var gateTemplates, pairTemplates sync.Map // *gate.Gate or [2]*gate.Gate → *gateTemplate

// templateOf returns the op template of the gate's configuration,
// building it on first use.
func templateOf(g *gate.Gate) (*gateTemplate, error) {
	return memoTemplate(&gateTemplates, g, g)
}

// pairTemplateOf returns the op template of configurations a and b of
// one cell, building it on first use. For a single configuration (a == b)
// it is that configuration's template, whose nodes both orderings share.
func pairTemplateOf(a, b *gate.Gate) (*gateTemplate, error) {
	if a == b {
		return templateOf(a)
	}
	return memoTemplate(&pairTemplates, [2]*gate.Gate{a, b}, a, b)
}

func memoTemplate(memo *sync.Map, key any, cfgs ...*gate.Gate) (*gateTemplate, error) {
	if t, ok := memo.Load(key); ok {
		return t.(*gateTemplate), nil
	}
	t, err := buildTemplate(cfgs...)
	if err != nil {
		return nil, err
	}
	prior, _ := memo.LoadOrStore(key, t)
	return prior.(*gateTemplate), nil
}

// buildTemplate compiles the output function of cfgs[0] and the
// internal-node functions of every configuration in cfgs (one, or a pair
// of one cell's) into one template, sharing common subfunctions. A pair
// must have the same pins and the same output function.
func buildTemplate(cfgs ...*gate.Gate) (*gateTemplate, error) {
	g := cfgs[0]
	n := len(g.Inputs)
	if n > maxCompiledInputs {
		return nil, fmt.Errorf("cell %s has %d inputs; the bit-parallel compiler supports at most %d",
			g.Name, n, maxCompiledInputs)
	}
	graphs := make([]*gate.Graph, len(cfgs))
	internal := 0
	for ci, cfg := range cfgs {
		gr, err := cfg.Graph()
		if err != nil {
			return nil, err
		}
		if !slices.Equal(cfg.Inputs, g.Inputs) {
			return nil, fmt.Errorf("cells %s and %s of a pair have pins %v and %v", g.Name, cfg.Name, g.Inputs, cfg.Inputs)
		}
		if ci > 0 && truthTable(gr.OutputFunc()) != truthTable(graphs[0].OutputFunc()) {
			return nil, fmt.Errorf("cells %s and %s of a pair compute different output functions", g.Name, cfg.Name)
		}
		graphs[ci] = gr
		internal += gr.NumInternal()
	}
	tb := newTemplateBuilder(n, internal)
	t := &gateTemplate{internal: make([]templateNode, 0, internal)}
	t.out = tb.compile(truthTable(graphs[0].OutputFunc()))
	for ci, gr := range graphs {
		t.outDeg[ci] = gr.Degree(gate.Y)
		owner := int8(ci)
		if len(graphs) == 1 {
			t.outDeg[1] = t.outDeg[0]
			owner = -1
		}
		for _, nk := range gr.InternalNodes() {
			state := tb.state + int32(len(t.internal))
			fh, fg := truthTable(gr.H(nk)), truthTable(gr.G(nk))
			v := tb.compile(fh)
			if fh|fg != tb.mask {
				// H | (s &^ (H|G)) = H | (s &^ G): the third operand may be
				// either, so take the one that costs fewer ops.
				x := fg
				if tb.cost(fh|fg) < tb.cost(fg) {
					x = fh | fg
				}
				v = tb.emit(opKeep, v, state, tb.compile(x))
			}
			t.internal = append(t.internal, templateNode{value: v, state: state, degree: gr.Degree(nk), owner: owner})
		}
	}
	t.ops = tb.ops
	t.locals = tb.next - tb.state
	return t, nil
}

// truthTable extracts an n≤6-variable function as one word: bit m is the
// function's value on minterm m.
func truthTable(f logic.Func) uint64 {
	n := f.NumVars()
	var tt uint64
	for m := uint(0); m < 1<<n; m++ {
		if f.Eval(m) {
			tt |= 1 << m
		}
	}
	return tt
}

// varTables[i] is the truth table of variable i over six variables; its
// low 2ⁿ bits are the table over n variables.
var varTables = [maxCompiledInputs]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// cofactors splits tt on variable i: t0 is the function with xi=0, t1
// with xi=1, both expressed over the full variable set (independent of
// xi), so every subfunction of a gate is keyed by one kind of table.
func cofactors(tt uint64, i int) (t0, t1 uint64) {
	v, s := varTables[i], uint(1)<<i
	t1 = tt & v
	t0 = tt &^ v
	return t0 | t0<<s, t1 | t1>>s
}

// templateBuilder lowers the truth tables of one gate configuration into
// ops over local slots by Shannon decomposition, memoized by truth table
// (all functions of one gate range over the same variables).
type templateBuilder struct {
	n     int
	mask  uint64 // the valid truth-table bits for n variables
	state int32  // first state slot; temporaries follow the states
	next  int32  // next free slot
	ops   []bitOp
	memo  map[uint64]int32 // truth table → slot holding it
	costs map[uint64]int   // cost's memo, valid for one memo state
}

func newTemplateBuilder(n, internal int) *templateBuilder {
	tb := &templateBuilder{
		n:     n,
		mask:  ^uint64(0) >> (64 - (1 << n)),
		state: int32(2 + n),
		next:  int32(2 + n + internal),
		memo:  map[uint64]int32{},
		costs: map[uint64]int{},
	}
	tb.memo[0], tb.memo[tb.mask] = 0, 1
	for i := 0; i < n; i++ {
		tb.memo[varTables[i]&tb.mask] = int32(2 + i)
	}
	return tb
}

// emit appends an op writing a fresh slot and returns the slot.
func (tb *templateBuilder) emit(code opCode, a, b, c int32) int32 {
	dst := tb.next
	tb.next++
	tb.ops = append(tb.ops, bitOp{code: code, dst: dst, a: a, b: b, c: c})
	clear(tb.costs)
	return dst
}

// cost estimates the ops compiling tt would emit now: zero for a table
// some slot already holds, otherwise the cheapest branch's op plus the
// costs of the cofactors it reads. Cofactors shared between branches
// count once per branch, so it is an upper bound.
func (tb *templateBuilder) cost(tt uint64) int {
	if _, ok := tb.memo[tt]; ok {
		return 0
	}
	if c, ok := tb.costs[tt]; ok {
		return c
	}
	_, c := tb.branch(tt)
	tb.costs[tt] = c
	return c
}

// branch returns the variable a Shannon step on tt should split on, the
// one with the lowest stepCost (the lowest index on a tie), and that
// cost; the variable is -1 when tt depends on none.
func (tb *templateBuilder) branch(tt uint64) (v, cost int) {
	v = -1
	for i := 0; i < tb.n; i++ {
		if c, ok := tb.stepCost(tt, i); ok && (v < 0 || c < cost) {
			v, cost = i, c
		}
	}
	return v, cost
}

// stepCost is cost's estimate when tt branches on variable i; ok is false
// when tt does not depend on it.
func (tb *templateBuilder) stepCost(tt uint64, i int) (int, bool) {
	t0, t1 := cofactors(tt, i)
	switch {
	case t0 == t1:
		return 0, false
	case t0 == 0: // x & f1
		return 1 + tb.cost(t1), true
	case t1 == 0: // f0 &^ x, or ^x
		return 1 + tb.cost(t0), true
	case t0 == tb.mask: // f1 | ^x
		return 1 + tb.cost(t1), true
	case t1 == tb.mask: // x | f0
		return 1 + tb.cost(t0), true
	}
	return 1 + tb.cost(t1) + tb.cost(t0), true // mux
}

// compile returns a slot holding tt, emitting ops as needed: a Shannon
// step on the variable branch picks, with common subfunctions compiled
// once.
func (tb *templateBuilder) compile(tt uint64) int32 {
	if s, ok := tb.memo[tt]; ok {
		return s
	}
	branch, _ := tb.branch(tt)
	if branch < 0 {
		// Depends on no variable yet not constant: impossible.
		panic(fmt.Sprintf("sim: non-constant table %#x with empty support", tt))
	}
	x := int32(2 + branch)
	t0, t1 := cofactors(tt, branch)
	var s int32
	switch {
	case t0 == 0:
		s = tb.emit(opAnd, x, tb.compile(t1), 0)
	case t1 == 0 && t0 == tb.mask:
		s = tb.emit(opNot, x, 0, 0)
	case t1 == 0:
		s = tb.emit(opAndNot, tb.compile(t0), x, 0)
	case t0 == tb.mask:
		s = tb.emit(opOrNot, tb.compile(t1), x, 0)
	case t1 == tb.mask:
		s = tb.emit(opOr, x, tb.compile(t0), 0)
	default:
		hi := tb.compile(t1)
		s = tb.emit(opMux, x, hi, tb.compile(t0))
	}
	tb.memo[tt] = s
	return s
}
