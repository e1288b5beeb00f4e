// Package mcnc provides the benchmark circuits for the Table 3
// experiments. The original MCNC netlists are not redistributable here,
// so the suite has two parts:
//
//   - Embedded classics: small, hand-written BLIF netlists (ripple-carry
//     adders, ISCAS c17, a decoder, a multiplexer, parity and majority,
//     a comparator) that exercise the full BLIF → map → optimize flow and
//     reproduce the paper's motivating structures exactly.
//   - Synthetic stand-ins: for each of the paper's 39 MCNC benchmark rows,
//     a deterministic pseudo-random combinational DAG with the same mapped
//     gate count as the paper reports (column G), built directly on the
//     Table 2 library.
package mcnc

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/mapper"
	"repro/internal/netlist"
)

// Entry is one row of the paper's Table 3 benchmark list. Gates is the
// paper's column G. (The OCR of the paper lost the name column and two G
// values; names are reassigned from the standard MCNC combinational set
// in order and the two unreadable counts are reconstructed as 96 and 88.)
type Entry struct {
	Name  string
	Gates int
}

// Table3 lists the 39 benchmarks of the paper's evaluation.
var Table3 = []Entry{
	{"9symml", 224}, {"alu2", 148}, {"b9", 316}, {"c8", 96},
	{"cc", 117}, {"cht", 43}, {"cm138a", 24}, {"cm150a", 88},
	{"cm151a", 64}, {"cm152a", 55}, {"cm162a", 128}, {"cm163a", 45},
	{"cm42a", 459}, {"cm82a", 196}, {"cm85a", 47}, {"cmb", 64},
	{"comp", 67}, {"cordic", 62}, {"count", 49}, {"cu", 41},
	{"decod", 73}, {"example2", 84}, {"f51m", 155}, {"frg1", 50},
	{"lal", 540}, {"majority", 401}, {"misex1", 235}, {"misex2", 424},
	{"mux", 442}, {"pcle", 222}, {"pcler8", 284}, {"pm1", 411},
	{"sct", 516}, {"tcon", 408}, {"term1", 206}, {"ttt2", 132},
	{"unreg", 485}, {"x2", 244}, {"z4ml", 313},
}

// Names returns the Table 3 benchmark names in order.
func Names() []string {
	names := make([]string, len(Table3))
	for i, e := range Table3 {
		names[i] = e.Name
	}
	return names
}

// Find returns the Table 3 entry with the given name.
func Find(name string) (Entry, bool) {
	for _, e := range Table3 {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Load returns the named benchmark as a mapped circuit: an embedded
// classic when one exists under that name, otherwise the synthetic
// stand-in with the paper's gate count.
func Load(name string, lib *library.Library) (*circuit.Circuit, error) {
	if src, ok := embedded[name]; ok {
		nw, err := netlist.ParseBLIF(strings.NewReader(src))
		if err != nil {
			return nil, fmt.Errorf("mcnc: embedded %s: %w", name, err)
		}
		return mapper.Map(nw, lib)
	}
	e, ok := Find(name)
	if !ok {
		return nil, fmt.Errorf("mcnc: unknown benchmark %q", name)
	}
	return Synthetic(e.Name, e.Gates, seedFor(e.Name), lib)
}

// EmbeddedNames lists the hand-written classic netlists.
func EmbeddedNames() []string {
	return []string{
		"c17", "rca4", "rca8", "dec24", "mux41", "par8", "maj3", "cmp4",
		"mul2", "csel4", "bcd7seg",
	}
}

// EmbeddedSource returns the raw BLIF text of an embedded classic.
func EmbeddedSource(name string) (string, bool) {
	src, ok := embedded[name]
	return src, ok
}

func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Synthetic generates a deterministic pseudo-random combinational circuit
// with exactly the given number of gates, mapped onto lib. The same
// (name, gates, seed) triple always yields the same circuit.
func Synthetic(name string, gates int, seed int64, lib *library.Library) (*circuit.Circuit, error) {
	if gates < 1 {
		return nil, fmt.Errorf("mcnc: gate count %d must be positive", gates)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &circuit.Circuit{Name: name}
	nPI := gates / 6
	if nPI < 4 {
		nPI = 4
	}
	if nPI > 48 {
		nPI = 48
	}
	var nets []string
	for i := 0; i < nPI; i++ {
		n := fmt.Sprintf("pi%d", i)
		c.Inputs = append(c.Inputs, n)
		nets = append(nets, n)
	}
	// Weighted cell mix: mostly simple gates, a healthy share of complex
	// AOI/OAI gates so reordering has stacks to work with.
	type weighted struct {
		cell   string
		weight int
	}
	mix := []weighted{
		{"inv", 10}, {"nand2", 18}, {"nor2", 14}, {"nand3", 10},
		{"nor3", 7}, {"nand4", 3}, {"nor4", 3},
		{"aoi21", 9}, {"oai21", 9}, {"aoi22", 4}, {"oai22", 4},
		{"aoi211", 3}, {"oai211", 3}, {"aoi31", 2}, {"oai31", 2},
		{"aoi221", 2}, {"oai221", 2}, {"aoi222", 1}, {"oai222", 1},
	}
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	pickCell := func() *library.Cell {
		r := rng.Intn(total)
		for _, w := range mix {
			r -= w.weight
			if r < 0 {
				return lib.MustCell(w.cell)
			}
		}
		return lib.MustCell("nand2")
	}
	// pickNet biases towards recently created nets to build depth while
	// keeping reconvergence (shared fan-out) likely.
	pickNet := func(exclude map[string]bool) string {
		for {
			var n string
			if rng.Float64() < 0.6 && len(nets) > nPI {
				lo := len(nets) - len(nets)/3 - 1
				n = nets[lo+rng.Intn(len(nets)-lo)]
			} else {
				n = nets[rng.Intn(len(nets))]
			}
			if !exclude[n] {
				return n
			}
		}
	}
	used := map[string]bool{}
	for i := 0; i < gates; i++ {
		cell := pickCell()
		for len(nets) < len(cell.Inputs) {
			// Degenerate tiny case: add extra inputs.
			n := fmt.Sprintf("pi%d", len(c.Inputs))
			c.Inputs = append(c.Inputs, n)
			nets = append(nets, n)
		}
		exclude := map[string]bool{}
		pins := make([]string, len(cell.Inputs))
		for p := range pins {
			pins[p] = pickNet(exclude)
			exclude[pins[p]] = true
			used[pins[p]] = true
		}
		out := fmt.Sprintf("n%d", i)
		c.Gates = append(c.Gates, &circuit.Instance{
			Name: fmt.Sprintf("g%d", i),
			Cell: cell.Proto,
			Pins: pins,
			Out:  out,
		})
		nets = append(nets, out)
	}
	// Outputs: every gate output that nothing reads. Guarantee ≥ 1.
	for _, g := range c.Gates {
		if !used[g.Out] {
			c.Outputs = append(c.Outputs, g.Out)
		}
	}
	if len(c.Outputs) == 0 {
		c.Outputs = append(c.Outputs, c.Gates[len(c.Gates)-1].Out)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("mcnc: synthetic %s: %w", name, err)
	}
	return c, nil
}

// RippleCarryAdderBLIF emits the BLIF text of an n-bit ripple-carry adder
// built from full-adder SOP nodes — the Section 1.1 motivation circuit,
// whose carry chain accumulates transition density towards the most
// significant bits.
func RippleCarryAdderBLIF(bits int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".model rca%d\n", bits)
	b.WriteString(".inputs")
	for i := 0; i < bits; i++ {
		fmt.Fprintf(&b, " a%d b%d", i, i)
	}
	b.WriteString(" cin\n.outputs")
	for i := 0; i < bits; i++ {
		fmt.Fprintf(&b, " s%d", i)
	}
	b.WriteString(" cout\n")
	carry := "cin"
	for i := 0; i < bits; i++ {
		next := fmt.Sprintf("c%d", i+1)
		if i == bits-1 {
			next = "cout"
		}
		fmt.Fprintf(&b, ".names a%d b%d %s s%d\n100 1\n010 1\n001 1\n111 1\n", i, i, carry, i)
		fmt.Fprintf(&b, ".names a%d b%d %s %s\n11- 1\n1-1 1\n-11 1\n", i, i, carry, next)
		carry = next
	}
	b.WriteString(".end\n")
	return b.String()
}

// embedded holds the hand-written classic netlists.
var embedded = map[string]string{
	"rca4": RippleCarryAdderBLIF(4),
	"rca8": RippleCarryAdderBLIF(8),

	// The ISCAS-85 c17 netlist: six 2-input NANDs.
	"c17": `.model c17
.inputs i1 i2 i3 i6 i7
.outputs o22 o23
.names i1 i3 n10
11 0
.names i3 i6 n11
11 0
.names i2 n11 n16
11 0
.names n11 i7 n19
11 0
.names n10 n16 o22
11 0
.names n16 n19 o23
11 0
.end
`,

	// 2-to-4 decoder with enable.
	"dec24": `.model dec24
.inputs en a b
.outputs d0 d1 d2 d3
.names en a b d0
100 1
.names en a b d1
110 1
.names en a b d2
101 1
.names en a b d3
111 1
.end
`,

	// 4-to-1 multiplexer.
	"mux41": `.model mux41
.inputs s1 s0 d0 d1 d2 d3
.outputs z
.names s1 s0 d0 d1 d2 d3 z
001--- 1
01-1-- 1
10--1- 1
11---1 1
.end
`,

	// 8-input parity as a balanced XOR tree.
	"par8": `.model par8
.inputs x0 x1 x2 x3 x4 x5 x6 x7
.outputs p
.names x0 x1 t0
10 1
01 1
.names x2 x3 t1
10 1
01 1
.names x4 x5 t2
10 1
01 1
.names x6 x7 t3
10 1
01 1
.names t0 t1 u0
10 1
01 1
.names t2 t3 u1
10 1
01 1
.names u0 u1 p
10 1
01 1
.end
`,

	// 3-input majority voter.
	"maj3": `.model maj3
.inputs a b c
.outputs m
.names a b c m
11- 1
1-1 1
-11 1
.end
`,

	// 2×2-bit array multiplier: p = a·b, a = a1a0, b = b1b0.
	"mul2": `.model mul2
.inputs a0 a1 b0 b1
.outputs p0 p1 p2 p3
.names a0 b0 p0
11 1
.names a1 b0 m10
11 1
.names a0 b1 m01
11 1
.names a1 b1 m11
11 1
.names m10 m01 p1
10 1
01 1
.names m10 m01 c1
11 1
.names m11 c1 p2
10 1
01 1
.names m11 c1 p3
11 1
.end
`,

	// 4-bit carry-select adder: low half computed once, high half computed
	// for both carry assumptions and selected — a classic structure with
	// heavy reconvergence.
	"csel4": `.model csel4
.inputs a0 b0 a1 b1 a2 b2 a3 b3 cin
.outputs s0 s1 s2 s3 cout
.names a0 b0 cin s0
100 1
010 1
001 1
111 1
.names a0 b0 cin c1
11- 1
1-1 1
-11 1
.names a1 b1 c1 s1
100 1
010 1
001 1
111 1
.names a1 b1 c1 csel
11- 1
1-1 1
-11 1
.names a2 b2 s2z
10 1
01 1
.names a2 b2 c3z
11 1
.names a2 b2 s2o
11 1
00 1
.names a2 b2 c3o
1- 1
-1 1
.names csel s2z s2o s2
01- 1
1-1 1
.names csel c3z c3o c3
01- 1
1-1 1
.names a3 b3 c3 s3
100 1
010 1
001 1
111 1
.names a3 b3 c3 cout
11- 1
1-1 1
-11 1
.end
`,

	// BCD to seven-segment decoder (segments a-g, inputs d3..d0; values
	// 10-15 treated as don't-make-sense → blank).
	"bcd7seg": `.model bcd7seg
.inputs d3 d2 d1 d0
.outputs sa sb sc sd se sf sg
.names d3 d2 d1 d0 sa
0000 1
0010 1
0011 1
0101 1
0110 1
0111 1
1000 1
1001 1
.names d3 d2 d1 d0 sb
0000 1
0001 1
0010 1
0011 1
0100 1
0111 1
1000 1
1001 1
.names d3 d2 d1 d0 sc
0000 1
0001 1
0011 1
0100 1
0101 1
0110 1
0111 1
1000 1
1001 1
.names d3 d2 d1 d0 sd
0000 1
0010 1
0011 1
0101 1
0110 1
1000 1
1001 1
.names d3 d2 d1 d0 se
0000 1
0010 1
0110 1
1000 1
.names d3 d2 d1 d0 sf
0000 1
0100 1
0101 1
0110 1
1000 1
1001 1
.names d3 d2 d1 d0 sg
0010 1
0011 1
0100 1
0101 1
0110 1
1000 1
1001 1
.end
`,

	// 4-bit equality comparator.
	"cmp4": `.model cmp4
.inputs a0 b0 a1 b1 a2 b2 a3 b3
.outputs eq
.names a0 b0 x0
11 1
00 1
.names a1 b1 x1
11 1
00 1
.names a2 b2 x2
11 1
00 1
.names a3 b3 x3
11 1
00 1
.names x0 x1 x2 x3 eq
1111 1
.end
`,
}
