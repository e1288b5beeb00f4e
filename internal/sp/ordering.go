package sp

import (
	"sort"
)

// CountOrderings returns the number of distinct configurations obtainable
// by reordering the network's transistors, without enumerating them:
// a leaf has 1; a parallel node multiplies its children's counts (branch
// order is unobservable); a series node of k children additionally
// multiplies by k! (every chain permutation is a distinct physical
// arrangement). The expression is flattened first. Inputs are assumed
// distinct (Validate enforces this).
func CountOrderings(e *Expr) int {
	return countOrderings(e.Flatten())
}

func countOrderings(e *Expr) int {
	if e.Kind == Leaf {
		return 1
	}
	n := 1
	for _, c := range e.Children {
		n *= countOrderings(c)
	}
	if e.Kind == Series {
		n *= factorial(len(e.Children))
	}
	return n
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
	}
	return f
}

// Orderings enumerates every distinct configuration of the network as a
// fresh expression, flattening first. The result is sorted by ConfigKey so
// enumeration order is deterministic. The identity configuration (the
// input expression itself, flattened) is always among the results.
func Orderings(e *Expr) []*Expr {
	variants := enumerate(e.Flatten())
	sort.Slice(variants, func(i, j int) bool {
		return variants[i].ConfigKey() < variants[j].ConfigKey()
	})
	// Inputs are distinct, so no two variants share a ConfigKey; dedup
	// defensively anyway to keep the invariant under future relaxations.
	out := variants[:0]
	var prev string
	for _, v := range variants {
		k := v.ConfigKey()
		if k != prev {
			out = append(out, v)
			prev = k
		}
	}
	return out
}

func enumerate(e *Expr) []*Expr {
	if e.Kind == Leaf {
		return []*Expr{L(e.Input)}
	}
	// Variants of each child.
	childVariants := make([][]*Expr, len(e.Children))
	for i, c := range e.Children {
		childVariants[i] = enumerate(c)
	}
	// Cartesian product of child variants.
	combos := [][]*Expr{{}}
	for _, vs := range childVariants {
		var next [][]*Expr
		for _, combo := range combos {
			for _, v := range vs {
				row := make([]*Expr, len(combo), len(combo)+1)
				copy(row, combo)
				next = append(next, append(row, v))
			}
		}
		combos = next
	}
	var out []*Expr
	if e.Kind == Parallel {
		for _, combo := range combos {
			out = append(out, &Expr{Kind: Parallel, Children: combo})
		}
		return out
	}
	// Series: every permutation of every combination.
	for _, combo := range combos {
		permute(combo, func(perm []*Expr) {
			children := make([]*Expr, len(perm))
			copy(children, perm)
			out = append(out, &Expr{Kind: Series, Children: children})
		})
	}
	return out
}

// permute calls visit with every permutation of xs (Heap's algorithm).
// The slice passed to visit is reused; visit must copy if it retains it.
func permute(xs []*Expr, visit func([]*Expr)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			visit(xs)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				xs[i], xs[k-1] = xs[k-1], xs[i]
			} else {
				xs[0], xs[k-1] = xs[k-1], xs[0]
			}
		}
	}
	if len(xs) == 0 {
		return
	}
	rec(len(xs))
}

// Automorphisms returns the input permutations that map the unordered
// network onto itself: bijections m over the input names such that
// renaming the inputs of e by m yields the same ShapeKey. These are the
// symmetries of the gate — input swaps realizable by rewiring rather than
// by a different layout. The identity is always included. Brute force over
// all permutations; library gates have at most six inputs.
func Automorphisms(e *Expr) []map[string]string {
	names := e.Inputs()
	sort.Strings(names)
	shape := e.ShapeKey()
	var autos []map[string]string
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	permuteInts(idx, func(perm []int) {
		m := make(map[string]string, len(names))
		for i, p := range perm {
			m[names[i]] = names[p]
		}
		if e.RenameInputs(m).ShapeKey() == shape {
			autos = append(autos, m)
		}
	})
	return autos
}

func permuteInts(xs []int, visit func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			cp := make([]int, len(xs))
			copy(cp, xs)
			visit(cp)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				xs[i], xs[k-1] = xs[k-1], xs[i]
			} else {
				xs[0], xs[k-1] = xs[k-1], xs[0]
			}
		}
	}
	if len(xs) == 0 {
		return
	}
	rec(len(xs))
}

// Pivot returns a new expression in which the two series sub-networks
// adjacent to the given internal node are transposed — the paper's
// PIVOTING_ON_INTERNAL_NODE (Fig. 4). Internal nodes are numbered 0..p-1
// in depth-first order over the flattened expression: a Series node with k
// children owns k-1 boundary nodes, visited child-by-child, with each
// child's own internal nodes preceding the boundary that follows it.
// Pivot panics if node is out of range; use NumInternalNodes for the count.
func Pivot(e *Expr, node int) *Expr {
	f := e.Flatten()
	res, rem := pivot(f, node)
	if rem >= 0 {
		panic("sp: pivot node index out of range")
	}
	return res
}

// pivot transposes around the rem-th internal node in depth-first order.
// It returns the (possibly) rebuilt node and the remaining count; a
// negative remaining count signals the pivot was applied.
func pivot(e *Expr, rem int) (*Expr, int) {
	if e.Kind == Leaf {
		return e, rem
	}
	children := make([]*Expr, len(e.Children))
	copy(children, e.Children)
	for i, c := range children {
		var nc *Expr
		nc, rem = pivot(c, rem)
		children[i] = nc
		if rem < 0 {
			return &Expr{Kind: e.Kind, Children: children}, rem
		}
		// Boundary node after child i (series only, not after the last).
		if e.Kind == Series && i < len(children)-1 {
			if rem == 0 {
				children[i], children[i+1] = children[i+1], children[i]
				return &Expr{Kind: e.Kind, Children: children}, -1
			}
			rem--
		}
	}
	return &Expr{Kind: e.Kind, Children: children}, rem
}
