// Package logic provides boolean functions represented as dense truth
// tables, together with the operations the transistor-reordering power
// model needs: cofactors, the boolean difference ∂f/∂x, and equilibrium
// signal probabilities under the Parker–McCluskey independence assumption.
//
// Functions are defined over a fixed number of variables n (0 ≤ n ≤ MaxVars).
// Variable i corresponds to bit i of a minterm index: minterm m assigns
// value (m>>i)&1 to variable i. Gates in the library have at most six
// inputs, so dense truth tables are both the simplest and the fastest
// representation for this workload.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported variable count. 16 variables means a
// 65536-bit table (1 KiB words), far beyond any gate in the library but
// convenient for tests and for matching wide SOP covers during mapping.
const MaxVars = 16

// Func is a completely-specified boolean function of n variables stored as
// a truth table. The zero value is not useful; construct values with
// Const, Var, or the parsing/combinator helpers.
type Func struct {
	n     int
	words []uint64
}

// numWords returns the number of 64-bit words needed for an n-variable table.
func numWords(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// tableMask returns the mask of valid bits in the (single) word of a
// function with n ≤ 6 variables.
func tableMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

func checkVars(n int) {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("logic: variable count %d out of range [0,%d]", n, MaxVars))
	}
}

// Const returns the constant function (all minterms = v) over n variables.
func Const(n int, v bool) Func {
	checkVars(n)
	f := Func{n: n, words: make([]uint64, numWords(n))}
	if v {
		for i := range f.words {
			f.words[i] = ^uint64(0)
		}
		f.words[len(f.words)-1] &= tableMask(n)
	}
	return f
}

// Var returns the projection function of variable i over n variables.
func Var(i, n int) Func {
	checkVars(n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("logic: variable index %d out of range [0,%d)", i, n))
	}
	f := Func{n: n, words: make([]uint64, numWords(n))}
	if i < 6 {
		// Bit m of the pattern is 1 iff (m>>i)&1 == 1: alternating runs
		// of length 2^i within every word.
		var pat uint64
		for m := 0; m < 64; m++ {
			if (m>>i)&1 == 1 {
				pat |= 1 << m
			}
		}
		for w := range f.words {
			f.words[w] = pat
		}
		if n < 6 {
			f.words[0] &= tableMask(n)
		}
	} else {
		// Whole words alternate in runs of 2^(i-6) words.
		run := 1 << (i - 6)
		for w := range f.words {
			if (w/run)&1 == 1 {
				f.words[w] = ^uint64(0)
			}
		}
	}
	return f
}

// FromTruth returns the n-variable function that is 1 exactly on the
// minterms m for which truth(m) holds, setting the table bits directly.
func FromTruth(n int, truth func(m uint) bool) Func {
	f := Const(n, false)
	size := uint(1) << n
	for m := uint(0); m < size; m++ {
		if truth(m) {
			f.words[m>>6] |= 1 << (m & 63)
		}
	}
	return f
}

// NumVars returns the number of variables of f.
func (f Func) NumVars() int { return f.n }

// valid reports whether f has been initialized.
func (f Func) valid() bool { return f.words != nil }

func (f Func) checkSame(g Func) {
	if !f.valid() || !g.valid() {
		panic("logic: use of zero Func")
	}
	if f.n != g.n {
		panic(fmt.Sprintf("logic: variable count mismatch: %d vs %d", f.n, g.n))
	}
}

func (f Func) clone() Func {
	w := make([]uint64, len(f.words))
	copy(w, f.words)
	return Func{n: f.n, words: w}
}

// And returns f ∧ g.
func (f Func) And(g Func) Func {
	f.checkSame(g)
	r := f.clone()
	for i := range r.words {
		r.words[i] &= g.words[i]
	}
	return r
}

// Or returns f ∨ g.
func (f Func) Or(g Func) Func {
	f.checkSame(g)
	r := f.clone()
	for i := range r.words {
		r.words[i] |= g.words[i]
	}
	return r
}

// Xor returns f ⊕ g.
func (f Func) Xor(g Func) Func {
	f.checkSame(g)
	r := f.clone()
	for i := range r.words {
		r.words[i] ^= g.words[i]
	}
	return r
}

// Not returns ¬f.
func (f Func) Not() Func {
	if !f.valid() {
		panic("logic: use of zero Func")
	}
	r := f.clone()
	for i := range r.words {
		r.words[i] = ^r.words[i]
	}
	if f.n < 6 {
		r.words[0] &= tableMask(f.n)
	}
	return r
}

// Implies reports whether f ⇒ g (f ∧ ¬g ≡ 0).
func (f Func) Implies(g Func) bool {
	f.checkSame(g)
	for i := range f.words {
		if f.words[i]&^g.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether f and g are the same function over the same
// variable count.
func (f Func) Equal(g Func) bool {
	if f.n != g.n || len(f.words) != len(g.words) {
		return false
	}
	for i := range f.words {
		if f.words[i] != g.words[i] {
			return false
		}
	}
	return true
}

// IsConst reports whether f is the constant function v.
func (f Func) IsConst(v bool) bool {
	return f.Equal(Const(f.n, v))
}

// Eval evaluates f on the minterm m (variable i takes bit i of m).
func (f Func) Eval(m uint) bool {
	if !f.valid() {
		panic("logic: use of zero Func")
	}
	if m >= 1<<f.n {
		panic(fmt.Sprintf("logic: minterm %d out of range for %d variables", m, f.n))
	}
	return f.words[m>>6]>>(m&63)&1 == 1
}

// OnSetSize returns the number of minterms on which f is 1.
func (f Func) OnSetSize() int {
	c := 0
	for _, w := range f.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Cofactor returns f with variable i fixed to value v. The result still
// has n variables; it simply no longer depends on variable i.
func (f Func) Cofactor(i int, v bool) Func {
	if !f.valid() {
		panic("logic: use of zero Func")
	}
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("logic: cofactor variable %d out of range [0,%d)", i, f.n))
	}
	r := f.clone()
	if i < 6 {
		run := uint(1) << i
		for w := range r.words {
			word := r.words[w]
			var out uint64
			for m := uint(0); m < 64; m++ {
				var src uint
				if v {
					src = m | run
				} else {
					src = m &^ run
				}
				out |= (word >> src & 1) << m
			}
			r.words[w] = out
		}
		if f.n < 6 {
			r.words[0] &= tableMask(f.n)
		}
	} else {
		run := 1 << (i - 6)
		for w := range r.words {
			var src int
			if v {
				src = w | run
			} else {
				src = w &^ run
			}
			r.words[w] = f.words[src]
		}
	}
	return r
}

// Diff returns the boolean difference ∂f/∂xi = f|xi=1 ⊕ f|xi=0.
// A minterm of ∂f/∂xi is 1 exactly when a transition of xi under that
// assignment of the remaining variables propagates to f (paper Sec. 3.2).
func (f Func) Diff(i int) Func {
	return f.Cofactor(i, true).Xor(f.Cofactor(i, false))
}

// DependsOn reports whether f actually depends on variable i.
func (f Func) DependsOn(i int) bool {
	return !f.Diff(i).IsConst(false)
}

// Support returns the indices of variables f depends on, ascending.
func (f Func) Support() []int {
	var s []int
	for i := 0; i < f.n; i++ {
		if f.DependsOn(i) {
			s = append(s, i)
		}
	}
	return s
}

// Prob returns the probability that f is 1 when each variable i is an
// independent 0-1 random variable with P(xi=1) = p[i]. This is the
// Parker–McCluskey signal probability: Σ over on-set minterms of the
// product of per-variable probabilities.
func (f Func) Prob(p []float64) float64 {
	if !f.valid() {
		panic("logic: use of zero Func")
	}
	if len(p) != f.n {
		panic(fmt.Sprintf("logic: Prob needs %d probabilities, got %d", f.n, len(p)))
	}
	for i, pi := range p {
		if pi < 0 || pi > 1 {
			panic(fmt.Sprintf("logic: probability p[%d]=%g out of [0,1]", i, pi))
		}
	}
	// Recursive Shannon expansion with memoization would be faster for
	// sparse supports, but n ≤ 16 and gate functions have n ≤ 6; the
	// direct sum is simple and exact.
	total := 0.0
	size := uint(1) << f.n
	for m := uint(0); m < size; m++ {
		if !f.Eval(m) {
			continue
		}
		term := 1.0
		for i := 0; i < f.n; i++ {
			if m>>i&1 == 1 {
				term *= p[i]
			} else {
				term *= 1 - p[i]
			}
		}
		total += term
	}
	return total
}

// MintermTable fills dst with the probability of every minterm of n =
// len(p) independent variables, P(xi=1) = p[i], and returns it resized
// to 2ⁿ entries (reallocated only when dst is too small). The table
// doubles from [1], so entry m is formed as ((1·f₀)·f₁)…·fₙ₋₁ with
// fi = p[i] or 1−p[i]: Prob's product order, so ProbTable over it
// reproduces Prob bit for bit.
func MintermTable(dst []float64, p []float64) []float64 {
	n := len(p)
	checkVars(n)
	for i, pi := range p {
		if !(pi >= 0 && pi <= 1) {
			panic(fmt.Sprintf("logic: probability p[%d]=%g out of [0,1]", i, pi))
		}
	}
	size := 1 << n
	if cap(dst) < size {
		dst = make([]float64, size)
	}
	t := dst[:size]
	t[0] = 1
	for i, pi := range p {
		half := 1 << i
		q := 1 - pi
		for m := 0; m < half; m++ {
			t[m+half] = t[m] * pi
			t[m] *= q
		}
	}
	return t
}

// ProbTable returns Prob(p) from p's MintermTable: the sum of the table
// over f's on-set, in ascending minterm order as Prob sums it.
func (f Func) ProbTable(table []float64) float64 {
	if !f.valid() {
		panic("logic: use of zero Func")
	}
	if len(table) != 1<<f.n {
		panic(fmt.Sprintf("logic: ProbTable needs %d entries, got %d", 1<<f.n, len(table)))
	}
	total := 0.0
	for w, word := range f.words {
		base := w << 6
		for word != 0 {
			total += table[base+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	return total
}

// PermuteVars returns g with g(x_{perm[0]}, …, x_{perm[n-1]}) = f(x_0, …).
// perm must be a permutation of 0..n-1; variable i of f becomes variable
// perm[i] of the result.
func (f Func) PermuteVars(perm []int) Func {
	if !f.valid() {
		panic("logic: use of zero Func")
	}
	if len(perm) != f.n {
		panic(fmt.Sprintf("logic: permutation length %d != %d variables", len(perm), f.n))
	}
	seen := make([]bool, f.n)
	for _, p := range perm {
		if p < 0 || p >= f.n || seen[p] {
			panic("logic: invalid permutation")
		}
		seen[p] = true
	}
	// Minterm t of the result reads minterm m of f, where bit i of m is
	// bit perm[i] of t.
	return FromTruth(f.n, func(t uint) bool {
		var m uint
		for i, p := range perm {
			m |= (t >> p & 1) << i
		}
		return f.Eval(m)
	})
}

// String renders f as its hexadecimal truth table, most significant word
// first, prefixed with the variable count, e.g. "3:0x96".
func (f Func) String() string {
	if !f.valid() {
		return "<zero Func>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d:0x", f.n)
	for i := len(f.words) - 1; i >= 0; i-- {
		if i == len(f.words)-1 {
			fmt.Fprintf(&b, "%x", f.words[i])
		} else {
			fmt.Fprintf(&b, "%016x", f.words[i])
		}
	}
	return b.String()
}
