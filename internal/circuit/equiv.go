package circuit

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/logic"
)

// NetFunctions composes every net's boolean function over the primary
// input space (input i of the returned functions is c.Inputs[i]). It is
// exact and exhaustive, so the circuit must have at most logic.MaxVars
// primary inputs.
func NetFunctions(c *Circuit) (map[string]logic.Func, error) {
	n := len(c.Inputs)
	if n > logic.MaxVars {
		return nil, fmt.Errorf("circuit %s: %d primary inputs exceed the exact-composition limit %d",
			c.Name, n, logic.MaxVars)
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	fns := make(map[string]logic.Func, n+len(c.Gates))
	for i, in := range c.Inputs {
		fns[in] = logic.Var(i, n)
	}
	for _, g := range order {
		cell, err := g.Cell.Func()
		if err != nil {
			return nil, err
		}
		pinFns := make([]logic.Func, len(g.Pins))
		for i, p := range g.Pins {
			f, ok := fns[p]
			if !ok {
				return nil, fmt.Errorf("circuit %s: instance %s reads unknown net %q", c.Name, g.Name, p)
			}
			pinFns[i] = f
		}
		fns[g.Out] = compose(cell, pinFns, n)
	}
	return fns, nil
}

// compose evaluates cell(f_1, …, f_k) over the n-variable PI space.
func compose(cell logic.Func, pins []logic.Func, n int) logic.Func {
	return logic.FromTruth(n, func(m uint) bool {
		var pinBits uint
		for i, f := range pins {
			if f.Eval(m) {
				pinBits |= 1 << i
			}
		}
		return cell.Eval(pinBits)
	})
}

// Equivalent formally compares two circuits output by output, composing
// each primary output's function over the shared primary-input space.
// The circuits must agree on input and output names (order may differ).
// On mismatch it returns false with a human-readable witness.
func Equivalent(a, b *Circuit) (bool, string, error) {
	if err := sameNames("input", a.Inputs, b.Inputs); err != nil {
		return false, "", err
	}
	if err := sameNames("output", a.Outputs, b.Outputs); err != nil {
		return false, "", err
	}
	// Align b's input order with a's by building b's functions over its
	// own order and permuting.
	fa, err := NetFunctions(a)
	if err != nil {
		return false, "", err
	}
	fb, err := NetFunctions(b)
	if err != nil {
		return false, "", err
	}
	n := len(a.Inputs)
	perm := make([]int, n) // b-input index → a-input index
	posA := map[string]int{}
	for i, in := range a.Inputs {
		posA[in] = i
	}
	for i, in := range b.Inputs {
		perm[i] = posA[in]
	}
	for _, o := range a.Outputs {
		ga := fa[o]
		gb := fb[o].PermuteVars(perm)
		if !ga.Equal(gb) {
			// Find a concrete counterexample minterm.
			for m := uint(0); m < 1<<n; m++ {
				if ga.Eval(m) != gb.Eval(m) {
					return false, fmt.Sprintf("output %s differs at input minterm %d (%s)",
						o, m, mintermAssignment(a.Inputs, m)), nil
				}
			}
			return false, fmt.Sprintf("output %s differs", o), nil
		}
	}
	return true, "", nil
}

func mintermAssignment(inputs []string, m uint) string {
	out := ""
	for i, in := range inputs {
		if i > 0 {
			out += " "
		}
		v := "0"
		if m>>i&1 == 1 {
			v = "1"
		}
		out += in + "=" + v
	}
	return out
}

func sameNames(kind string, a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("circuit: %s counts differ: %d vs %d", kind, len(a), len(b))
	}
	sa := append([]string(nil), a...)
	sb := append([]string(nil), b...)
	sort.Strings(sa)
	sort.Strings(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			return fmt.Errorf("circuit: %s sets differ: %q vs %q", kind, sa[i], sb[i])
		}
	}
	return nil
}

// EquivalentRandom compares two circuits on random input vectors — the
// fallback for circuits too wide for exact composition. It reports the
// first mismatch found; passing proves nothing but catches gross errors.
func EquivalentRandom(a, b *Circuit, trials int, rng *rand.Rand) (bool, string, error) {
	if err := sameNames("input", a.Inputs, b.Inputs); err != nil {
		return false, "", err
	}
	if err := sameNames("output", a.Outputs, b.Outputs); err != nil {
		return false, "", err
	}
	for trial := 0; trial < trials; trial++ {
		in := make(map[string]bool, len(a.Inputs))
		for _, name := range a.Inputs {
			in[name] = rng.Intn(2) == 1
		}
		va, err := a.Eval(in)
		if err != nil {
			return false, "", err
		}
		vb, err := b.Eval(in)
		if err != nil {
			return false, "", err
		}
		for _, o := range a.Outputs {
			if va[o] != vb[o] {
				return false, fmt.Sprintf("output %s differs on a random vector (trial %d)", o, trial), nil
			}
		}
	}
	return true, "", nil
}
