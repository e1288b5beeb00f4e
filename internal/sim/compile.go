package sim

import (
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/logic"
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
//   - The boolean functions are compiled once, at build time, from their
//     truth tables into AND/OR/NOT/ANDNOT word ops by memoized Shannon
//     decomposition; evaluation is a single pass over the op array with
//     no maps, no interface dispatch and no allocation.
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
)

// bitOp is one instruction: pure word arithmetic over register indices.
type bitOp struct {
	code opCode
	dst  int32
	a, b int32
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
// topological order and reserves registers 0 and 1 for the constants
// all-zeros and all-ones. Every primary input then gets a value register
// and a meter that reads its state from the same register. It returns
// each lowered net's register, which the gates extend, and the
// circuit's fanout counts.
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
	lw.inputs = append([]string(nil), c.Inputs...)
	lw.gates = order
	lw.numRegs = 2
	netReg = make(map[string]int32, len(c.Inputs)+len(order))
	for _, in := range lw.inputs {
		r := lw.alloc()
		lw.inReg = append(lw.inReg, r)
		netReg[in] = r
		lw.meters = append(lw.meters, meterPoint{
			valueReg: r, stateReg: r, kind: meterInput, gate: -1, net: in,
		})
	}
	return netReg, c.Fanout(), nil
}

// alloc reserves a fresh register.
func (lw *lowering) alloc() int32 {
	r := int32(lw.numRegs)
	lw.numRegs++
	return r
}

// emit appends a word op writing a fresh register and returns it.
func (lw *lowering) emit(code opCode, a, b int32) int32 {
	dst := lw.alloc()
	lw.ops = append(lw.ops, bitOp{code: code, dst: dst, a: a, b: b})
	return dst
}

// beginGate checks gate g against the compiler's width limit, builds its
// transistor graph and points gc at the registers of its pins. gc is
// reused across gates, so its memo map is cleared, not reallocated.
func (lw *lowering) beginGate(gc *gateCompiler, g *circuit.Instance, netReg map[string]int32) (*gate.Graph, error) {
	if len(g.Pins) > maxCompiledInputs {
		return nil, fmt.Errorf("sim: instance %s: cell %s has %d inputs; the bit-parallel compiler supports at most %d",
			g.Name, g.Cell.Name, len(g.Pins), maxCompiledInputs)
	}
	gr, err := g.Cell.Graph()
	if err != nil {
		return nil, fmt.Errorf("sim: instance %s: %w", g.Name, err)
	}
	gc.p = lw
	gc.n = len(g.Pins)
	gc.vars = gc.vars[:0]
	for _, pin := range g.Pins {
		r, ok := netReg[pin]
		if !ok {
			return nil, fmt.Errorf("sim: instance %s reads unknown net %q", g.Name, pin)
		}
		gc.vars = append(gc.vars, r)
	}
	if gc.memo == nil {
		gc.memo = map[uint64]int32{}
	}
	clear(gc.memo)
	return gr, nil
}

// lowerInternal emits gate gi's internal nodes and appends their meters.
// A node is driven to the rail a conducting path reaches and retains its
// charge otherwise, in a persistent state register:
// new = H | (state &^ (H|G)).
func (lw *lowering) lowerInternal(gc *gateCompiler, gi int, gr *gate.Graph, cp core.Params) {
	halfCV2 := 0.5 * cp.Vdd * cp.Vdd
	for _, nk := range gr.InternalNodes() {
		ttH := truthTable(gr.H(nk))
		ttDriven := ttH | truthTable(gr.G(nk))
		stateReg := lw.alloc()
		rNew := gc.compile(ttH)
		if ttDriven != gc.mask() {
			rKeep := lw.emit(opAndNot, stateReg, gc.compile(ttDriven))
			rNew = lw.emit(opOr, rNew, rKeep)
		}
		lw.meters = append(lw.meters, meterPoint{
			valueReg: rNew, stateReg: stateReg, kind: meterInternal, gate: int32(gi),
			energy: halfCV2 * cp.Cj * float64(gr.Degree(nk)),
		})
	}
}

// outputEnergy is the energy one transition of a gate's output net
// dissipates in one lane: ½·C·Vdd² over the output node's diffusion
// capacitance plus the load of its fanout.
func outputEnergy(cp core.Params, gr *gate.Graph, fanout int) float64 {
	halfCV2 := 0.5 * cp.Vdd * cp.Vdd
	return halfCV2 * (cp.Cj*float64(gr.Degree(gate.Y)) + cp.OutputLoad(fanout))
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
	var gc gateCompiler
	for gi, g := range p.gates {
		gr, err := p.beginGate(&gc, g, netReg)
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
		ry := gc.compile(truthTable(gr.OutputFunc()))
		netReg[g.Out] = ry
		p.meters = append(p.meters, meterPoint{
			valueReg: ry, stateReg: p.alloc(), kind: meterOutput, gate: int32(gi), net: g.Out,
			energy: outputEnergy(prm.Cap, gr, fanout[g.Out]),
		})
		p.lowerInternal(&gc, gi, gr, prm.Cap)
	}
	return p, nil
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

// gateCompiler lowers truth tables over one gate's input registers into
// word ops, sharing subfunctions across the gate's H and G functions
// through the memo (keyed by truth table — all functions of one gate
// range over the same variables).
type gateCompiler struct {
	p    *lowering
	n    int     // gate input count
	vars []int32 // register per gate input
	memo map[uint64]int32
}

// mask returns the valid truth-table bits for n variables.
func (gc *gateCompiler) mask() uint64 {
	if gc.n >= 6 {
		return ^uint64(0)
	}
	return uint64(1)<<(1<<gc.n) - 1
}

// varTable returns the truth table of variable i.
func (gc *gateCompiler) varTable(i int) uint64 {
	var tt uint64
	for m := uint(0); m < 1<<gc.n; m++ {
		if m>>i&1 == 1 {
			tt |= 1 << m
		}
	}
	return tt
}

// cofactors splits tt on variable i: t0 is the function with xi=0, t1
// with xi=1, both expressed over the full variable set (independent of
// xi) so they remain valid memo keys.
func (gc *gateCompiler) cofactors(tt uint64, i int) (t0, t1 uint64) {
	for m := uint(0); m < 1<<gc.n; m++ {
		pair := uint64(1)<<m | uint64(1)<<(m^(1<<i))
		if m>>i&1 == 1 {
			if tt>>m&1 == 1 {
				t1 |= pair
			}
		} else if tt>>m&1 == 1 {
			t0 |= pair
		}
	}
	return t0, t1
}

// compile returns a register holding tt evaluated on the gate's input
// registers, emitting ops as needed. Shannon decomposition with
// memoization: common subfunctions compile once.
func (gc *gateCompiler) compile(tt uint64) int32 {
	tt &= gc.mask()
	switch tt {
	case 0:
		return 0 // the all-zeros register
	case gc.mask():
		return 1 // the all-ones register
	}
	if r, ok := gc.memo[tt]; ok {
		return r
	}
	// Find a variable the function depends on.
	branch := -1
	var t0, t1 uint64
	for i := 0; i < gc.n; i++ {
		c0, c1 := gc.cofactors(tt, i)
		if c0 != c1 {
			branch, t0, t1 = i, c0, c1
			break
		}
	}
	if branch < 0 {
		// Depends on no variable yet not constant: impossible.
		panic(fmt.Sprintf("sim: non-constant table %#x with empty support", tt))
	}
	xi := gc.vars[branch]
	var r int32
	switch {
	case tt == gc.varTable(branch):
		r = xi
	case tt == ^gc.varTable(branch)&gc.mask():
		r = gc.p.emit(opNot, xi, 0)
	case t0 == 0: // f = xi & f1
		r = gc.p.emit(opAnd, xi, gc.compile(t1))
	case t1 == 0: // f = ~xi & f0
		r = gc.p.emit(opAndNot, gc.compile(t0), xi)
	case t0 == gc.mask(): // f = ~xi | f1 = ~(xi &^ f1)
		r = gc.p.emit(opNot, gc.p.emit(opAndNot, xi, gc.compile(t1)), 0)
	case t1 == gc.mask(): // f = xi | f0
		r = gc.p.emit(opOr, xi, gc.compile(t0))
	default: // f = (xi & f1) | (~xi & f0)
		hi := gc.p.emit(opAnd, xi, gc.compile(t1))
		lo := gc.p.emit(opAndNot, gc.compile(t0), xi)
		r = gc.p.emit(opOr, hi, lo)
	}
	gc.memo[tt] = r
	return r
}
