package gate

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/sp"
)

// Gate is one configuration of a static CMOS gate: an ordered pull-down
// network and an ordered pull-up network over the same input pins. The
// unordered pair (the "shape") identifies the cell; the ordered pair
// identifies a transistor arrangement (one column of the paper's Fig. 1).
type Gate struct {
	Name   string   // cell name, e.g. "oai21"
	Inputs []string // pin order; functions are over these variables
	PD     *sp.Expr // pull-down (NMOS), serialized output → ground
	PU     *sp.Expr // pull-up (PMOS), serialized power → output

	orbit *orbit // set on interned gates (see intern.go)
}

// New builds a gate from its pull-down network, deriving the canonical
// complementary pull-up as the dual. Like every constructor here it
// returns the interned gate of the configuration.
func New(name string, inputs []string, pd *sp.Expr) (*Gate, error) {
	return NewWithPU(name, inputs, pd, pd.Dual())
}

// NewWithPU builds a gate with an explicitly ordered pull-up network;
// the pull-up must be the series-parallel dual of the pull-down up to
// ordering (checked via the complementarity of the conduction functions).
// A pull-down or pull-up that differs from a registered configuration
// only in parallel-branch order yields that configuration.
func NewWithPU(name string, inputs []string, pd, pu *sp.Expr) (*Gate, error) {
	g := &Gate{Name: name, Inputs: inputs, PD: pd, PU: pu}
	gr, err := g.Graph()
	if err != nil {
		return nil, err
	}
	if err := gr.CheckComplementary(); err != nil {
		return nil, fmt.Errorf("gate %s: %w", name, err)
	}
	return intern(g), nil
}

// MustNew is New that panics on error, for compile-time cell tables.
func MustNew(name string, inputs []string, pd *sp.Expr) *Gate {
	g, err := New(name, inputs, pd)
	if err != nil {
		panic(err)
	}
	return g
}

// Graph builds the transistor graph of this configuration.
func (g *Gate) Graph() (*Graph, error) {
	return BuildGraph(g.Inputs, g.PD, g.PU)
}

// Func returns the gate's boolean function over its input pin order.
func (g *Gate) Func() (logic.Func, error) {
	vars := make(map[string]int, len(g.Inputs))
	for i, in := range g.Inputs {
		vars[in] = i
	}
	pd, err := g.PD.Conduction(vars, len(g.Inputs), false)
	if err != nil {
		return logic.Func{}, err
	}
	return pd.Not(), nil
}

// ConfigKey identifies this transistor arrangement; all orderings of the
// same cell share a ShapeKey but differ in ConfigKey.
func (g *Gate) ConfigKey() string {
	return g.PD.ConfigKey() + "/" + g.PU.ConfigKey()
}

// ShapeKey identifies the cell independent of ordering.
func (g *Gate) ShapeKey() string {
	return g.PD.ShapeKey() + "/" + g.PU.ShapeKey()
}

// NumTransistors returns the total transistor count (both networks).
func (g *Gate) NumTransistors() int {
	return g.PD.NumTransistors() + g.PU.NumTransistors()
}

// CountConfigs returns the number of distinct configurations of the gate:
// the product of the ordering counts of the two networks (they reorder
// independently). This is the #C column of the paper's Table 2.
func (g *Gate) CountConfigs() int {
	return sp.CountOrderings(g.PD) * sp.CountOrderings(g.PU)
}

// AllConfigs returns every distinct configuration of the gate's cell,
// interned and sorted by ConfigKey. The slice is shared by every member
// of the cell; treat it as read-only.
func (g *Gate) AllConfigs() []*Gate {
	return intern(g).orbit.configs
}

// ExploreStep records one pivot application for tracing (Fig. 5).
type ExploreStep struct {
	PivotNode int    // global internal-node index (pull-down nodes first)
	Config    string // ConfigKey reached
	New       bool
}

// FindAllConfigs runs the paper's exhaustive exploration (Fig. 4) on the
// whole gate: internal nodes of the pull-down network are indexed first,
// then the pull-up's. Pivoting on a node transposes the two series
// sub-networks adjacent to it. The visited set is keyed by ConfigKey.
// The result holds the interned gates in discovery order; tests assert
// it is a permutation of AllConfigs ([5] proves completeness).
func (g *Gate) FindAllConfigs(trace *[]ExploreStep) []*Gate {
	pdn := g.PD.NumInternalNodes()
	pun := g.PU.NumInternalNodes()
	total := pdn + pun
	pivot := func(cur *Gate, node int) *Gate {
		if node < pdn {
			return &Gate{Name: cur.Name, Inputs: cur.Inputs, PD: sp.Pivot(cur.PD, node), PU: cur.PU}
		}
		return &Gate{Name: cur.Name, Inputs: cur.Inputs, PD: cur.PD, PU: sp.Pivot(cur.PU, node-pdn)}
	}
	start := &Gate{Name: g.Name, Inputs: g.Inputs, PD: g.PD.Flatten(), PU: g.PU.Flatten()}
	visited := map[string]bool{start.ConfigKey(): true}
	order := []*Gate{start}
	var search func(cur *Gate, node int)
	search = func(cur *Gate, node int) {
		next := pivot(cur, node)
		key := next.ConfigKey()
		isNew := !visited[key]
		if trace != nil {
			*trace = append(*trace, ExploreStep{PivotNode: node, Config: key, New: isNew})
		}
		if !isNew {
			return
		}
		visited[key] = true
		order = append(order, next)
		for i := 0; i < total; i++ {
			if i != node {
				search(next, i)
			}
		}
	}
	for i := 0; i < total; i++ {
		search(start, i)
	}
	for i, c := range order {
		order[i] = intern(c)
	}
	return order
}

// Instance is one physical cell layout: the set of configurations
// reachable from each other purely by rewiring symmetric inputs
// (paper Sec. 5.1: oai21[A] covers configurations (A) and (B)).
type Instance struct {
	Label   string // "A", "B", … in deterministic order
	Configs []*Gate
}

// Instances partitions AllConfigs into orbits under the input
// automorphisms of the gate shape. The number of instances is the bracket
// count of Table 2 (aoi211[A,B,C] → 3 instances). Like AllConfigs, the
// result is computed once per cell and shared; treat it as read-only.
func (g *Gate) Instances() []Instance {
	return intern(g).orbit.partition()
}

func instanceLabel(i int) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return alphabet[i : i+1]
	}
	return fmt.Sprintf("Z%d", i)
}

// WithOrdering returns the interned configuration of this gate with the
// given ordered networks; the shapes must match. Every same-shape
// ordering is a member of the cell's orbit, so it needs no further
// validation.
func (g *Gate) WithOrdering(pd, pu *sp.Expr) (*Gate, error) {
	n := &Gate{Name: g.Name, Inputs: g.Inputs, PD: pd.Flatten(), PU: pu.Flatten()}
	if n.ShapeKey() != g.ShapeKey() {
		return nil, fmt.Errorf("gate %s: ordering has different shape %s", g.Name, n.ShapeKey())
	}
	return intern(n), nil
}

// String identifies the gate and its configuration.
func (g *Gate) String() string {
	return fmt.Sprintf("%s{pd=%s pu=%s}", g.Name, g.PD, g.PU)
}
