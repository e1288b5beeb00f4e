package sim

import (
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/logic"
)

// This file lowers a mapped circuit into a flat, topologically-levelized
// word-op program for the bit-parallel engine (bitsim.go). There is no
// map-based net lookup, heap scheduling or per-gate conducting-path
// flooding at run time — only straight-line code over dense register
// indices:
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
	gate     int32   // index into Program.gates; -1 for inputs
	net      string  // net name for inputs/outputs, "" for internal nodes
	energy   float64 // joules per transition per lane
}

// Program is a circuit compiled for the bit-parallel engine. It is
// immutable after Compile and safe for concurrent Run calls (register
// files and count slices are pooled per program, so steady-state runs do
// not allocate).
type Program struct {
	circ    *circuit.Circuit
	inputs  []string // primary inputs, program order
	gates   []*circuit.Instance
	numRegs int
	ops     []bitOp
	inReg   []int32 // value register per primary input
	meters  []meterPoint
	levels  int // logic depth of the levelized op stream, for reports

	scratch sync.Pool // *runScratch
}

// NumOps returns the length of the compiled instruction stream.
func (p *Program) NumOps() int { return len(p.ops) }

// NumRegs returns the register-file size one evaluation uses.
func (p *Program) NumRegs() int { return p.numRegs }

// Levels returns the circuit's logic depth (gate levels) — the program is
// emitted level by level, so ops of one level never read results of the
// same level.
func (p *Program) Levels() int { return p.levels }

// Compile lowers the circuit into a bit-parallel program using the
// capacitance constants of prm (prm.Mode is ignored: the compiled engine
// is zero-delay by construction).
func Compile(c *circuit.Circuit, prm Params) (*Program, error) {
	if err := prm.Cap.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	fanout := c.Fanout()
	halfCV2 := 0.5 * prm.Cap.Vdd * prm.Cap.Vdd

	p := &Program{
		circ:   c,
		inputs: append([]string(nil), c.Inputs...),
		gates:  order,
	}
	// Registers 0 and 1 hold the constants all-zeros and all-ones.
	const (
		regZero int32 = 0
		regOne  int32 = 1
	)
	p.numRegs = 2
	alloc := func() int32 {
		r := int32(p.numRegs)
		p.numRegs++
		return r
	}

	netReg := make(map[string]int32, len(c.Inputs)+len(order))
	for _, in := range p.inputs {
		r := alloc()
		p.inReg = append(p.inReg, r)
		netReg[in] = r
		p.meters = append(p.meters, meterPoint{
			valueReg: r, stateReg: alloc(), kind: meterInput, gate: -1, net: in,
		})
	}

	level := make(map[string]int, len(c.Inputs)+len(order))
	for gi, g := range order {
		if len(g.Pins) > maxCompiledInputs {
			return nil, fmt.Errorf("sim: instance %s: cell %s has %d inputs; the bit-parallel compiler supports at most %d",
				g.Name, g.Cell.Name, len(g.Pins), maxCompiledInputs)
		}
		gr, err := g.Cell.Graph()
		if err != nil {
			return nil, fmt.Errorf("sim: instance %s: %w", g.Name, err)
		}
		gl := 0
		for _, pin := range g.Pins {
			if level[pin] > gl {
				gl = level[pin]
			}
		}
		level[g.Out] = gl + 1
		if gl+1 > p.levels {
			p.levels = gl + 1
		}

		gc := &gateCompiler{
			p:    p,
			n:    len(g.Pins),
			vars: make([]int32, len(g.Pins)),
			memo: map[uint64]int32{},
		}
		for i, pin := range g.Pins {
			gc.vars[i] = netReg[pin]
		}

		// Output node: a complementary gate always drives y, so y = H_y.
		ry := gc.compile(truthTable(gr.OutputFunc()))
		netReg[g.Out] = ry
		p.meters = append(p.meters, meterPoint{
			valueReg: ry, stateReg: alloc(), kind: meterOutput, gate: int32(gi), net: g.Out,
			energy: halfCV2 * (prm.Cap.Cj*float64(gr.Degree(gate.Y)) + prm.Cap.OutputLoad(fanout[g.Out])),
		})

		// Internal nodes: driven to the rail a conducting path reaches,
		// retaining charge otherwise.
		for _, nk := range gr.InternalNodes() {
			ttH := truthTable(gr.H(nk))
			ttG := truthTable(gr.G(nk))
			ttDriven := ttH | ttG
			stateReg := alloc()
			rNew := gc.compile(ttH)
			if ttDriven != gc.mask() {
				rDriven := gc.compile(ttDriven)
				rKeep := p.emit(opAndNot, stateReg, rDriven)
				rNew = p.emit(opOr, rNew, rKeep)
			}
			p.meters = append(p.meters, meterPoint{
				valueReg: rNew, stateReg: stateReg, kind: meterInternal, gate: int32(gi),
				energy: halfCV2 * prm.Cap.Cj * float64(gr.Degree(nk)),
			})
		}
	}
	return p, nil
}

// emit appends a word op writing a fresh register and returns it.
func (p *Program) emit(code opCode, a, b int32) int32 {
	dst := int32(p.numRegs)
	p.numRegs++
	p.ops = append(p.ops, bitOp{code: code, dst: dst, a: a, b: b})
	return dst
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

// wordEmitter appends a word op writing a fresh register and returns it —
// implemented by both Program (zero-delay) and TimedProgram (timed.go) so
// one gate compiler serves both lowerings.
type wordEmitter interface {
	emit(code opCode, a, b int32) int32
}

// gateCompiler lowers truth tables over one gate's input registers into
// word ops, sharing subfunctions across the gate's H and G functions
// through the memo (keyed by truth table — all functions of one gate
// range over the same variables).
type gateCompiler struct {
	p    wordEmitter
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
		return 0 // regZero
	case gc.mask():
		return 1 // regOne
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
