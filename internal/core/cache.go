package core

import (
	"sync"

	"repro/internal/gate"
	"repro/internal/logic"
)

// template is the statistics-independent part of a gate configuration's
// analysis: the H/G path functions and their boolean differences per node,
// plus the structural capacitance sources. Extracting it is the expensive
// step (DFS path enumeration per node); it depends only on the
// configuration, never on the input statistics or loads, so instances of
// the same cell configuration across a circuit share one template.
type template struct {
	nodes []templateNode
}

type templateNode struct {
	id      gate.NodeID
	name    string
	isOut   bool
	sources int
	h, g    logic.Func
	dh, dg  []logic.Func // boolean differences per input
}

// templates memoizes each configuration's template. Package gate
// interns configurations (one *gate.Gate per configuration), so the
// pointer is the identity: a steady-state lookup is one lock-free map
// load. The map is safe for concurrent use (the experiment harness
// analyzes benchmarks in parallel) and bounded by the interned
// configurations (plus any Gate literal a caller builds by hand, which is
// its own key).
var templates sync.Map // *gate.Gate → *template

// templateOf returns the template for the gate's configuration, building
// it on first use.
func templateOf(g *gate.Gate) (*template, error) {
	if t, ok := templates.Load(g); ok {
		return t.(*template), nil
	}
	t, err := buildTemplate(g)
	if err != nil {
		return nil, err
	}
	prior, _ := templates.LoadOrStore(g, t)
	return prior.(*template), nil
}

func buildTemplate(g *gate.Gate) (*template, error) {
	gr, err := g.Graph()
	if err != nil {
		return nil, err
	}
	nodes := append(gr.InternalNodes(), gate.Y)
	t := &template{nodes: make([]templateNode, 0, len(nodes))}
	for _, nk := range nodes {
		tn := templateNode{
			id:      nk,
			name:    gr.NodeName(nk),
			isOut:   nk == gate.Y,
			sources: gr.Degree(nk),
			h:       gr.H(nk),
			g:       gr.G(nk),
		}
		tn.dh = make([]logic.Func, len(g.Inputs))
		tn.dg = make([]logic.Func, len(g.Inputs))
		for i := range g.Inputs {
			tn.dh[i] = tn.h.Diff(i)
			tn.dg[i] = tn.g.Diff(i)
		}
		t.nodes = append(t.nodes, tn)
	}
	return t, nil
}
