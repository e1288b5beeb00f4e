// Package mapper lowers a technology-independent logic network (BLIF
// .names nodes) onto the Table 2 cell library, producing the gate-level
// circuits the optimizer works on — the "mapped into the gate library"
// step of the paper's Section 5.1.
//
// The mapping is deliberately simple: each SOP node is matched against the
// library (boolean matching under input permutation, with a free output
// inverter when the complement matches); nodes no cell implements are
// decomposed into NAND/INV trees. Optimal covering is not the point of the
// paper — identical netlists feed both the best- and worst-reordering
// flows, so mapping quality cancels out of the comparison.
package mapper

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Map lowers the network onto lib.
func Map(nw *netlist.Network, lib *library.Library) (*circuit.Circuit, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	m := &mapping{
		lib:    lib,
		c:      &circuit.Circuit{Name: nw.Name, Inputs: append([]string(nil), nw.Inputs...)},
		alias:  map[string]string{},
		consts: map[string]bool{},
		pos:    map[string]bool{},
		invOf:  map[string]string{},
	}
	for _, o := range nw.Outputs {
		m.pos[o] = true
	}
	// Pass through pre-mapped gates.
	for _, g := range nw.Gates {
		if err := m.addGateNode(g); err != nil {
			return nil, err
		}
	}
	order, err := topoSOPs(nw)
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		if err := m.mapNode(n); err != nil {
			return nil, err
		}
	}
	m.c.Outputs = make([]string, len(nw.Outputs))
	for i, o := range nw.Outputs {
		if v, isConst := m.consts[m.resolve(o)]; isConst {
			return nil, fmt.Errorf("mapper: primary output %q is the constant %v; the library has no tie cells", o, v)
		}
		m.c.Outputs[i] = o
	}
	if err := m.c.Validate(); err != nil {
		return nil, fmt.Errorf("mapper: produced invalid circuit: %w", err)
	}
	return m.c, nil
}

type mapping struct {
	lib    *library.Library
	c      *circuit.Circuit
	alias  map[string]string // net → equivalent earlier net
	consts map[string]bool   // net → constant value
	pos    map[string]bool   // primary output nets (must stay materialized)
	invOf  map[string]string // net → net carrying its complement (inverter cache)
	nGate  int
	nNet   int
}

func (m *mapping) resolve(net string) string {
	for {
		a, ok := m.alias[net]
		if !ok {
			return net
		}
		net = a
	}
}

func (m *mapping) freshNet() string {
	m.nNet++
	return fmt.Sprintf("_t%d", m.nNet)
}

func (m *mapping) addInstance(cell *library.Cell, pins []string, out string) {
	m.nGate++
	m.c.Gates = append(m.c.Gates, &circuit.Instance{
		Name: fmt.Sprintf("_m%d", m.nGate),
		Cell: cell.Proto,
		Pins: pins,
		Out:  out,
	})
}

// inverted returns a net carrying ¬net, creating (and caching) an inverter
// if needed.
func (m *mapping) inverted(net string) string {
	net = m.resolve(net)
	if inv, ok := m.invOf[net]; ok {
		return inv
	}
	// If net itself is a cached inversion of x, reuse x.
	for x, nx := range m.invOf {
		if nx == net {
			return x
		}
	}
	out := m.freshNet()
	m.addInstance(m.lib.MustCell("inv"), []string{net}, out)
	m.invOf[net] = out
	return out
}

func (m *mapping) addGateNode(g *netlist.GateNode) error {
	cell, ok := m.lib.Cell(g.Cell)
	if !ok {
		return fmt.Errorf("mapper: unknown cell %q", g.Cell)
	}
	pins := make([]string, len(cell.Inputs))
	for i, pin := range cell.Inputs {
		net, ok := g.Pins[pin]
		if !ok {
			return fmt.Errorf("mapper: gate %s missing pin %s", g.Cell, pin)
		}
		pins[i] = net
	}
	if len(g.Pins) != len(cell.Inputs) {
		return fmt.Errorf("mapper: gate %s has %d bindings, cell wants %d", g.Cell, len(g.Pins), len(cell.Inputs))
	}
	m.nGate++
	m.c.Gates = append(m.c.Gates, &circuit.Instance{
		Name: fmt.Sprintf("_m%d", m.nGate),
		Cell: cell.Proto,
		Pins: pins,
		Out:  g.Out,
	})
	return nil
}

func (m *mapping) mapNode(n *netlist.SOPNode) error {
	f, err := n.Func()
	if err != nil {
		return err
	}
	// Substitute known constants and resolve aliases on the node inputs.
	ins := append([]string(nil), n.Inputs...)
	for i := range ins {
		ins[i] = m.resolve(ins[i])
		if v, ok := m.consts[ins[i]]; ok {
			f = f.Cofactor(i, v)
		}
	}
	// Shrink to the true support.
	sup := f.Support()
	rf := projectFunc(f, sup)
	rins := make([]string, len(sup))
	for i, s := range sup {
		rins[i] = ins[s]
	}
	switch len(rins) {
	case 0:
		m.consts[n.Output] = rf.Eval(0)
		if m.pos[n.Output] {
			return fmt.Errorf("mapper: primary output %q is the constant %v; the library has no tie cells", n.Output, rf.Eval(0))
		}
		return nil
	case 1:
		if rf.Equal(logic.Var(0, 1)) {
			return m.emitIdentity(n.Output, rins[0])
		}
		// ¬x: one inverter.
		m.addInstance(m.lib.MustCell("inv"), []string{rins[0]}, n.Output)
		return nil
	}
	// Direct library match.
	if cell, perm, ok := m.lib.Match(rf); ok {
		return m.emitMatch(cell, perm, rins, n.Output)
	}
	// Complement match: realize ¬f with a cell, then invert.
	if cell, perm, ok := m.lib.Match(rf.Not()); ok {
		mid := m.freshNet()
		if err := m.emitMatch(cell, perm, rins, mid); err != nil {
			return err
		}
		m.addInstance(m.lib.MustCell("inv"), []string{mid}, n.Output)
		m.invOf[mid] = n.Output
		return nil
	}
	// Generic two-level decomposition.
	return m.decompose(rf, rins, n.Output)
}

func (m *mapping) emitIdentity(out, in string) error {
	if !m.pos[out] {
		m.alias[out] = in
		return nil
	}
	// A primary output must be a real driven net with its own name:
	// materialize a buffer from two inverters.
	mid := m.inverted(in)
	m.addInstance(m.lib.MustCell("inv"), []string{mid}, out)
	return nil
}

// emitMatch instantiates cell with pins bound per the matcher's binding:
// binding[pin] = index into rins.
func (m *mapping) emitMatch(cell *library.Cell, binding []int, rins []string, out string) error {
	pins := make([]string, len(cell.Inputs))
	for pin, v := range binding {
		pins[pin] = rins[v]
	}
	m.addInstance(cell, pins, out)
	return nil
}

// decompose realizes f (arity ≥ 2, no direct match) as NAND/INV trees from
// its sum-of-products cover: f = NAND(¬p1, ¬p2, …) where ¬pi comes from a
// NAND over the product's literals.
func (m *mapping) decompose(f logic.Func, ins []string, out string) error {
	cubes := minimalCover(f)
	if len(cubes) == 0 {
		return fmt.Errorf("mapper: decompose called on constant function")
	}
	var orTerms []string // nets carrying ¬p_i
	for _, cube := range cubes {
		var lits []string
		for i := 0; i < f.NumVars(); i++ {
			switch cube[i] {
			case '1':
				lits = append(lits, ins[i])
			case '0':
				lits = append(lits, m.inverted(ins[i]))
			}
		}
		if len(lits) == 1 {
			// Single literal product: ¬p = inverted literal.
			orTerms = append(orTerms, m.inverted(lits[0]))
			continue
		}
		orTerms = append(orTerms, m.nandTree(lits, ""))
	}
	if len(orTerms) == 1 {
		// f = p1 = ¬(¬p1): invert into out.
		m.addInstance(m.lib.MustCell("inv"), []string{orTerms[0]}, out)
		return nil
	}
	m.nandTree(orTerms, out)
	return nil
}

// nandTree produces NAND(ins...) into out (or a fresh net when out is
// empty), splitting fan-ins wider than four with AND stages.
func (m *mapping) nandTree(ins []string, out string) string {
	for len(ins) > 4 {
		// Collapse the first four into their AND and recurse.
		nand := m.nandTree(ins[:4], "")
		and := m.inverted(nand)
		ins = append([]string{and}, ins[4:]...)
	}
	if out == "" {
		out = m.freshNet()
	}
	var cell *library.Cell
	switch len(ins) {
	case 2:
		cell = m.lib.MustCell("nand2")
	case 3:
		cell = m.lib.MustCell("nand3")
	case 4:
		cell = m.lib.MustCell("nand4")
	default:
		// len(ins) == 1 cannot happen: callers pass ≥ 2.
		panic(fmt.Sprintf("mapper: nandTree fan-in %d", len(ins)))
	}
	m.addInstance(cell, append([]string(nil), ins...), out)
	return out
}

// projectFunc restricts f to the variables listed in sup, producing a
// function of len(sup) variables (the others are vacuous in f).
func projectFunc(f logic.Func, sup []int) logic.Func {
	return logic.FromTruth(len(sup), func(m uint) bool {
		var full uint
		for i, s := range sup {
			full |= (m >> i & 1) << s
		}
		return f.Eval(full)
	})
}

// minimalCover returns a prime-ish cover of f: single-literal expansion of
// the minterm cover (repeatedly drop literals while the cube stays inside
// f, then remove covered cubes). Not Quine–McCluskey minimal, but compact
// enough for sane NAND trees.
func minimalCover(f logic.Func) []logic.Cube {
	n := f.NumVars()
	var cover []logic.Cube
	covered := logic.Const(n, false)
	size := uint(1) << n
	for m := uint(0); m < size; m++ {
		if !f.Eval(m) || covered.Eval(m) {
			continue
		}
		cube := make([]byte, n)
		for i := 0; i < n; i++ {
			if m>>i&1 == 1 {
				cube[i] = '1'
			} else {
				cube[i] = '0'
			}
		}
		// Expand: try dropping each literal.
		for i := 0; i < n; i++ {
			saved := cube[i]
			cube[i] = '-'
			if !cubeInside(cube, f) {
				cube[i] = saved
			}
		}
		c := logic.Cube(cube)
		cover = append(cover, c)
		cf, err := logic.FromSOP(n, []logic.Cube{c})
		if err != nil {
			panic(err) // cube constructed locally; cannot be malformed
		}
		covered = covered.Or(cf)
	}
	return cover
}

func cubeInside(cube []byte, f logic.Func) bool {
	g, err := logic.FromSOP(f.NumVars(), []logic.Cube{logic.Cube(cube)})
	if err != nil {
		panic(err)
	}
	return g.Implies(f)
}

// topoSOPs orders the SOP nodes so producers precede consumers.
func topoSOPs(nw *netlist.Network) ([]*netlist.SOPNode, error) {
	byOut := map[string]*netlist.SOPNode{}
	for _, n := range nw.SOPs {
		byOut[n.Output] = n
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[*netlist.SOPNode]int{}
	var order []*netlist.SOPNode
	var visit func(n *netlist.SOPNode) error
	visit = func(n *netlist.SOPNode) error {
		switch state[n] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("mapper: combinational cycle through %s", n.Output)
		}
		state[n] = visiting
		for _, in := range n.Inputs {
			if d, ok := byOut[in]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[n] = done
		order = append(order, n)
		return nil
	}
	for _, n := range nw.SOPs {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}
