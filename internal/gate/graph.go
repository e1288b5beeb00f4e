// Package gate represents static CMOS gates at the transistor level,
// exactly as the paper's Figure 2(a): a graph whose nodes are the power
// rails, the output node y, and the internal nodes of the pull-up and
// pull-down networks, and whose edges are the transistors. It extracts the
// path functions H_nk (node to vdd) and G_nk (node to vss) by depth-first
// path enumeration (Figure 2(b)) and enumerates all transistor
// reorderings of a gate, both combinatorially and with the paper's pivot
// search (Figure 4).
package gate

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/sp"
)

// NodeID identifies a node of the gate graph.
type NodeID int

// Fixed node identifiers; internal nodes follow.
const (
	Vss NodeID = iota // ground rail
	Vdd               // power rail
	Y                 // gate output
	firstInternal
)

// TransType distinguishes NMOS from PMOS transistors.
type TransType uint8

// Transistor types.
const (
	NMOS TransType = iota // conducts when its input is 1
	PMOS                  // conducts when its input is 0
)

func (t TransType) String() string {
	if t == NMOS {
		return "nmos"
	}
	return "pmos"
}

// Edge is one transistor: an undirected channel between nodes A and B
// whose conduction is controlled by Input.
type Edge struct {
	Type  TransType
	Input string
	A, B  NodeID
}

// Graph is the transistor-level view of one gate configuration.
type Graph struct {
	Inputs    []string // pin names in declaration order
	NumNodes  int      // total nodes including rails and y
	Edges     []Edge
	pdNodes   int // internal nodes belonging to the pull-down network
	puNodes   int // internal nodes belonging to the pull-up network
	nodeNames []string
}

// NumInternal returns the number of internal nodes (excluding rails and y).
func (g *Graph) NumInternal() int { return g.NumNodes - int(firstInternal) }

// NodeName returns a printable name for a node ("vss", "vdd", "y", "n0"…).
func (g *Graph) NodeName(n NodeID) string {
	if int(n) < len(g.nodeNames) {
		return g.nodeNames[n]
	}
	return fmt.Sprintf("n?%d", int(n))
}

// InternalNodes lists the internal node IDs, pull-down nodes first.
func (g *Graph) InternalNodes() []NodeID {
	ids := make([]NodeID, g.NumInternal())
	for i := range ids {
		ids[i] = firstInternal + NodeID(i)
	}
	return ids
}

// Degree returns the number of transistor terminals attached to node n;
// the capacitance model charges one junction capacitance per terminal.
func (g *Graph) Degree(n NodeID) int {
	d := 0
	for _, e := range g.Edges {
		if e.A == n || e.B == n {
			d++
		}
	}
	return d
}

// BuildGraph constructs the transistor graph for a gate configuration
// given its ordered pull-down network. The pull-up network is the ordered
// expression pu; pass pd.Dual() for the canonical complementary pull-up.
// The pull-down's first series element is attached at y (its serialization
// order runs output → ground); the pull-up's first element is attached at
// vdd (order runs power → output), matching the schematic convention of
// Figure 1.
func BuildGraph(inputs []string, pd, pu *sp.Expr) (*Graph, error) {
	if err := pd.Validate(); err != nil {
		return nil, fmt.Errorf("gate: pull-down: %w", err)
	}
	if err := pu.Validate(); err != nil {
		return nil, fmt.Errorf("gate: pull-up: %w", err)
	}
	pdf := pd.Flatten()
	puf := pu.Flatten()
	g := &Graph{
		Inputs:    append([]string(nil), inputs...),
		NumNodes:  int(firstInternal),
		nodeNames: []string{"vss", "vdd", "y"},
	}
	known := map[string]bool{}
	for _, in := range inputs {
		if known[in] {
			return nil, fmt.Errorf("gate: duplicate input %q", in)
		}
		known[in] = true
	}
	for _, in := range pdf.Inputs() {
		if !known[in] {
			return nil, fmt.Errorf("gate: pull-down input %q not among gate inputs %v", in, inputs)
		}
	}
	for _, in := range puf.Inputs() {
		if !known[in] {
			return nil, fmt.Errorf("gate: pull-up input %q not among gate inputs %v", in, inputs)
		}
	}
	if pdf.NumTransistors() != len(inputs) || puf.NumTransistors() != len(inputs) {
		return nil, fmt.Errorf("gate: networks must use each of the %d inputs exactly once", len(inputs))
	}
	g.build(pdf, Y, Vss, NMOS)
	g.pdNodes = g.NumInternal()
	g.build(puf, Vdd, Y, PMOS)
	g.puNodes = g.NumInternal() - g.pdNodes
	return g, nil
}

// newInternal allocates an internal node.
func (g *Graph) newInternal() NodeID {
	id := NodeID(g.NumNodes)
	g.NumNodes++
	g.nodeNames = append(g.nodeNames, fmt.Sprintf("n%d", int(id-firstInternal)))
	return id
}

// build lays the network expression down between nodes top and bottom.
func (g *Graph) build(e *sp.Expr, top, bottom NodeID, t TransType) {
	switch e.Kind {
	case sp.Leaf:
		g.Edges = append(g.Edges, Edge{Type: t, Input: e.Input, A: top, B: bottom})
	case sp.Parallel:
		for _, c := range e.Children {
			g.build(c, top, bottom, t)
		}
	case sp.Series:
		cur := top
		for i, c := range e.Children {
			next := bottom
			if i < len(e.Children)-1 {
				next = g.newInternal()
			}
			g.build(c, cur, next, t)
			cur = next
		}
	}
}

// conduction returns the literal under which edge e conducts.
func (g *Graph) conduction(e Edge, vars map[string]int, n int) logic.Func {
	v := logic.Var(vars[e.Input], n)
	if e.Type == PMOS {
		v = v.Not()
	}
	return v
}

// PathFunc computes the boolean function that is 1 exactly when a path of
// conducting transistors connects node from to node to — the paper's H_nk
// (to = Vdd) and G_nk (to = Vss). It enumerates simple paths depth-first,
// OR-ing the conjunction of edge literals along each path, exactly the
// CALCULATE_H_FUNCTION procedure of Figure 2(b).
func (g *Graph) PathFunc(from, to NodeID) logic.Func {
	vars := make(map[string]int, len(g.Inputs))
	for i, in := range g.Inputs {
		vars[in] = i
	}
	n := len(g.Inputs)
	acc := logic.Const(n, false)
	visited := make([]bool, g.NumNodes)
	var dfs func(cur NodeID, path logic.Func)
	dfs = func(cur NodeID, path logic.Func) {
		if cur == to {
			acc = acc.Or(path)
			return
		}
		visited[cur] = true
		for _, e := range g.Edges {
			var next NodeID
			switch {
			case e.A == cur:
				next = e.B
			case e.B == cur:
				next = e.A
			default:
				continue
			}
			// Never route through the opposite rail: rails are supplies,
			// not wires.
			if next != to && (next == Vdd || next == Vss) {
				continue
			}
			if visited[next] {
				continue
			}
			dfs(next, path.And(g.conduction(e, vars, n)))
		}
		visited[cur] = false
	}
	dfs(from, logic.Const(n, true))
	return acc
}

// H returns H_nk, the function of all paths from node nk to vdd.
func (g *Graph) H(nk NodeID) logic.Func { return g.PathFunc(nk, Vdd) }

// G returns G_nk, the function of all paths from node nk to vss.
func (g *Graph) G(nk NodeID) logic.Func { return g.PathFunc(nk, Vss) }

// OutputFunc returns the gate's logic function y = H_y. For a
// well-formed complementary gate this equals ¬G_y.
func (g *Graph) OutputFunc() logic.Func { return g.H(Y) }

// CheckComplementary verifies the static CMOS invariants: H_y = ¬G_y
// (exactly one network drives y under every input assignment) and
// H_nk·G_nk = 0 for every node (no rail-to-rail short through any node).
func (g *Graph) CheckComplementary() error {
	hy, gy := g.H(Y), g.G(Y)
	if !hy.Equal(gy.Not()) {
		return fmt.Errorf("gate: output not complementary: H_y=%v G_y=%v", hy, gy)
	}
	for _, nk := range g.InternalNodes() {
		h, gg := g.H(nk), g.G(nk)
		if !h.And(gg).IsConst(false) {
			return fmt.Errorf("gate: node %s can short vdd to vss", g.NodeName(nk))
		}
	}
	return nil
}

// NodeStateAt returns the steady logic value of every node under the
// given input minterm after the gate settles, with charge retention:
// driven nodes take their rail value, undriven nodes keep prev (prev may
// be nil, in which case undriven nodes default to false). It is the
// conducting-path reference the simulation oracle and the H/G
// cross-checks use; the compiled simulator evaluates H and G instead.
func (g *Graph) NodeStateAt(m uint, prev []bool) []bool {
	state := make([]bool, g.NumNodes)
	copy(state, prev)
	// Flood from each rail across conducting edges; nodes not reached by
	// either flood keep their retained charge.
	g.flood(Vdd, true, m, state)
	g.flood(Vss, false, m, state)
	state[Vdd], state[Vss] = true, false
	return state
}

// flood walks conducting channels from a rail, driving every reached node
// to val. Rails are supplies, not wires: the walk never continues through
// the opposite rail.
func (g *Graph) flood(from NodeID, val bool, m uint, state []bool) {
	seen := make([]bool, g.NumNodes)
	seen[from] = true
	stack := []NodeID{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur != Vdd && cur != Vss {
			state[cur] = val
		}
		for _, e := range g.Edges {
			next := e.B
			switch cur {
			case e.A:
			case e.B:
				next = e.A
			default:
				continue
			}
			on := m>>g.inputIndex(e.Input)&1 == 1
			if e.Type == PMOS {
				on = !on
			}
			if !on || next == Vdd || next == Vss || seen[next] {
				continue
			}
			seen[next] = true
			stack = append(stack, next)
		}
	}
}

func (g *Graph) inputIndex(name string) int {
	for i, in := range g.Inputs {
		if in == name {
			return i
		}
	}
	panic(fmt.Sprintf("gate: unknown input %q", name))
}

// String renders the edge list for debugging.
func (g *Graph) String() string {
	lines := make([]string, 0, len(g.Edges))
	for _, e := range g.Edges {
		lines = append(lines, fmt.Sprintf("%s %s %s-%s", e.Type, e.Input, g.NodeName(e.A), g.NodeName(e.B)))
	}
	sort.Strings(lines)
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "; "
		}
		out += l
	}
	return out
}
