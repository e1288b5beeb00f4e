// Package library defines the Sea-of-Gates cell library of the paper's
// Table 2: the inverter, NAND/NOR chains and the AOI/OAI complex-gate
// families, together with their configuration counts (#C) and layout
// instances. Counts and instances are computed from the series-parallel
// topologies rather than hard-coded, so the table the tools print is the
// table the enumeration engine actually produces.
package library

import (
	"fmt"
	"sort"

	"repro/internal/gate"
	"repro/internal/logic"
	"repro/internal/sp"
)

// Cell is one library gate: a canonical configuration plus derived data.
type Cell struct {
	Name      string
	Inputs    []string        // pin names in canonical order
	Proto     *gate.Gate      // canonical (as-drawn) configuration
	Func      logic.Func      // boolean function over the pin order
	Configs   int             // number of distinct transistor reorderings (#C)
	Instances []gate.Instance // layout instances (Table 2 brackets)
	Area      int             // transistor count; identical across instances
}

// Library is an immutable cell collection.
type Library struct {
	cells  []*Cell
	byName map[string]*Cell
}

// cellDef is the declarative seed for one cell.
type cellDef struct {
	name   string
	inputs []string
	pd     string // pull-down network (NMOS), sp syntax
}

// defaultDefs lists the Table 2 library. Pull-ups are the duals.
// nand4/nor2 are included to make the technology mapper practical; the
// paper's OCR-damaged table is reconstructed in full here (`paper table2`
// prints it).
var defaultDefs = []cellDef{
	{"inv", []string{"a"}, "a"},
	{"nand2", []string{"a", "b"}, "s(a,b)"},
	{"nand3", []string{"a", "b", "c"}, "s(a,b,c)"},
	{"nand4", []string{"a", "b", "c", "d"}, "s(a,b,c,d)"},
	{"nor2", []string{"a", "b"}, "p(a,b)"},
	{"nor3", []string{"a", "b", "c"}, "p(a,b,c)"},
	{"nor4", []string{"a", "b", "c", "d"}, "p(a,b,c,d)"},
	{"aoi21", []string{"a1", "a2", "b"}, "p(s(a1,a2),b)"},
	{"aoi22", []string{"a1", "a2", "b1", "b2"}, "p(s(a1,a2),s(b1,b2))"},
	{"aoi31", []string{"a1", "a2", "a3", "b"}, "p(s(a1,a2,a3),b)"},
	{"aoi211", []string{"a1", "a2", "b", "c"}, "p(s(a1,a2),b,c)"},
	{"aoi221", []string{"a1", "a2", "b1", "b2", "c"}, "p(s(a1,a2),s(b1,b2),c)"},
	{"aoi222", []string{"a1", "a2", "b1", "b2", "c1", "c2"}, "p(s(a1,a2),s(b1,b2),s(c1,c2))"},
	{"oai21", []string{"a1", "a2", "b"}, "s(p(a1,a2),b)"},
	{"oai22", []string{"a1", "a2", "b1", "b2"}, "s(p(a1,a2),p(b1,b2))"},
	{"oai31", []string{"a1", "a2", "a3", "b"}, "s(p(a1,a2,a3),b)"},
	{"oai211", []string{"a1", "a2", "b", "c"}, "s(p(a1,a2),b,c)"},
	{"oai221", []string{"a1", "a2", "b1", "b2", "c"}, "s(p(a1,a2),p(b1,b2),c)"},
	{"oai222", []string{"a1", "a2", "b1", "b2", "c1", "c2"}, "s(p(a1,a2),p(b1,b2),p(c1,c2))"},
}

var defaultLib = mustBuild(defaultDefs)

// Default returns the Table 2 library. The value is shared and immutable.
func Default() *Library { return defaultLib }

func mustBuild(defs []cellDef) *Library {
	l, err := Build(defs)
	if err != nil {
		panic(err)
	}
	return l
}

// Build constructs a library from definitions, deriving every cell's
// function, configuration count and instance partition.
func Build(defs []cellDef) (*Library, error) {
	l := &Library{byName: make(map[string]*Cell, len(defs))}
	for _, d := range defs {
		if _, dup := l.byName[d.name]; dup {
			return nil, fmt.Errorf("library: duplicate cell %q", d.name)
		}
		pd, err := sp.Parse(d.pd)
		if err != nil {
			return nil, fmt.Errorf("library: cell %s: %w", d.name, err)
		}
		proto, err := gate.New(d.name, d.inputs, pd)
		if err != nil {
			return nil, fmt.Errorf("library: cell %s: %w", d.name, err)
		}
		f, err := proto.Func()
		if err != nil {
			return nil, fmt.Errorf("library: cell %s: %w", d.name, err)
		}
		c := &Cell{
			Name:      d.name,
			Inputs:    append([]string(nil), d.inputs...),
			Proto:     proto,
			Func:      f,
			Configs:   proto.CountConfigs(),
			Instances: proto.Instances(),
			Area:      proto.NumTransistors(),
		}
		l.cells = append(l.cells, c)
		l.byName[c.Name] = c
	}
	return l, nil
}

// Cell looks a cell up by name.
func (l *Library) Cell(name string) (*Cell, bool) {
	c, ok := l.byName[name]
	return c, ok
}

// MustCell is Cell that panics when the cell is missing.
func (l *Library) MustCell(name string) *Cell {
	c, ok := l.byName[name]
	if !ok {
		panic(fmt.Sprintf("library: no cell %q", name))
	}
	return c
}

// Cells returns the cells in definition order.
func (l *Library) Cells() []*Cell { return l.cells }

// Names returns the sorted cell names.
func (l *Library) Names() []string {
	names := make([]string, len(l.cells))
	for i, c := range l.cells {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// Match finds a cell whose function equals f under some permutation of
// f's variables. On success it returns the cell and a binding where
// binding[pin] = the f-variable index driving that cell pin. Cells are
// tried in definition order (simplest first); permutations are enumerated
// exhaustively, which is fine for ≤ 6 inputs.
func (l *Library) Match(f logic.Func) (*Cell, []int, bool) {
	n := f.NumVars()
	for _, c := range l.cells {
		if len(c.Inputs) != n {
			continue
		}
		if perm, ok := matchPerm(c.Func, f); ok {
			return c, perm, true
		}
	}
	return nil, nil, false
}

// matchPerm searches for perm with cellFunc.PermuteVars(perm) == f;
// perm[pin] then gives the f-variable for each pin.
func matchPerm(cellFunc, f logic.Func) ([]int, bool) {
	n := cellFunc.NumVars()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var found []int
	var rec func(k int)
	rec = func(k int) {
		if found != nil {
			return
		}
		if k == n {
			perm := append([]int(nil), idx...)
			if cellFunc.PermuteVars(perm).Equal(f) {
				found = perm
			}
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return found, found != nil
}

// Table2Row is one row of the regenerated Table 2.
type Table2Row struct {
	Name      string
	Configs   int
	Instances int
	Area      int
}

// Table2 returns the library summary in definition order — the data of the
// paper's Table 2, computed from first principles.
func (l *Library) Table2() []Table2Row {
	rows := make([]Table2Row, len(l.cells))
	for i, c := range l.cells {
		rows[i] = Table2Row{
			Name:      c.Name,
			Configs:   c.Configs,
			Instances: len(c.Instances),
			Area:      c.Area,
		}
	}
	return rows
}
