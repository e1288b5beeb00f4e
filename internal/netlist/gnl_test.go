package netlist

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/stoch"
)

const smallGNL = `# a two-gate circuit
circuit demo
inputs a b c
outputs z
gate u1 nand2 y=m a=a b=b
gate u2 oai21 y=z a1=m a2=c b=a pd=s(b,p(a1,a2)) pu=p(s(a1,a2),b)
end
`

func TestReadGNL(t *testing.T) {
	c, err := ReadGNL(strings.NewReader(smallGNL), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" || len(c.Gates) != 2 {
		t.Fatalf("parsed %s with %d gates", c.Name, len(c.Gates))
	}
	u2 := c.Gates[1]
	if u2.Cell.Name != "oai21" {
		t.Fatalf("u2 cell = %s", u2.Cell.Name)
	}
	// The explicit pd= puts b at the output side: not the proto config.
	proto := library.Default().MustCell("oai21").Proto
	if u2.Cell.ConfigKey() == proto.ConfigKey() {
		t.Error("explicit configuration ignored")
	}
	if u2.Pins[0] != "m" || u2.Pins[1] != "c" || u2.Pins[2] != "a" {
		t.Errorf("pin binding = %v", u2.Pins)
	}
}

func TestReadGNLDefaultsToProto(t *testing.T) {
	c, err := ReadGNL(strings.NewReader(smallGNL), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	proto := library.Default().MustCell("nand2").Proto
	if c.Gates[0].Cell.ConfigKey() != proto.ConfigKey() {
		t.Error("gate without pd=/pu= did not get the proto configuration")
	}
}

func TestGNLRoundTrip(t *testing.T) {
	c, err := ReadGNL(strings.NewReader(smallGNL), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteGNL(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadGNL(strings.NewReader(buf.String()), library.Default())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if len(c2.Gates) != len(c.Gates) {
		t.Fatal("gate count changed")
	}
	// Configurations survive the round trip exactly.
	byName := map[string]*circuit.Instance{}
	for _, g := range c2.Gates {
		byName[g.Name] = g
	}
	for _, g := range c.Gates {
		g2 := byName[g.Name]
		if g2 == nil {
			t.Fatalf("instance %s lost", g.Name)
		}
		if g2.Cell.ConfigKey() != g.Cell.ConfigKey() {
			t.Errorf("instance %s: config %s became %s", g.Name, g.Cell.ConfigKey(), g2.Cell.ConfigKey())
		}
	}
}

func TestReadGNLErrors(t *testing.T) {
	lib := library.Default()
	cases := []struct {
		name string
		src  string
	}{
		{"no circuit", "inputs a\nend\n"},
		{"no end", "circuit c\ninputs a\n"},
		{"unknown cell", "circuit c\ninputs a\noutputs z\ngate u1 frob y=z a=a\nend\n"},
		{"missing pin", "circuit c\ninputs a\noutputs z\ngate u1 nand2 y=z a=a\nend\n"},
		{"extra pin", "circuit c\ninputs a\noutputs z\ngate u1 inv y=z a=a b=a\nend\n"},
		{"no output", "circuit c\ninputs a\noutputs z\ngate u1 inv a=a\nend\n"},
		{"bad pd", "circuit c\ninputs a b\noutputs z\ngate u1 nand2 y=z a=a b=b pd=s(a\nend\n"},
		{"wrong shape pd", "circuit c\ninputs a b\noutputs z\ngate u1 nand2 y=z a=a b=b pd=p(a,b)\nend\n"},
		{"unknown directive", "circuit c\nfrobnicate\nend\n"},
		{"undriven pin", "circuit c\ninputs a\noutputs z\ngate u1 nand2 y=z a=a b=ghost\nend\n"},
		{"double drive", "circuit c\ninputs a\noutputs z\ngate u1 inv y=z a=a\ngate u2 inv y=z a=a\nend\n"},
		{"content after end", "circuit c\ninputs a\noutputs a\nend\ninputs b\n"},
	}
	for _, tc := range cases {
		if _, err := ReadGNL(strings.NewReader(tc.src), lib); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestReadGNLTrivialOutputFromInput(t *testing.T) {
	// An output directly driven by an input is legal.
	src := "circuit c\ninputs a\noutputs a\nend\n"
	c, err := ReadGNL(strings.NewReader(src), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 0 {
		t.Error("unexpected gates")
	}
}

// TestReadGNLErrorsStructural covers the malformed-line and net-rule
// error paths the differential harness's replay parser depends on:
// duplicate nets, duplicate names, broken bindings, missing outputs.
func TestReadGNLErrorsStructural(t *testing.T) {
	lib := library.Default()
	cases := []struct {
		name string
		src  string
		want string // substring expected in the error
	}{
		{"duplicate primary input",
			"circuit c\ninputs a a\noutputs a\nend\n", "duplicate primary input"},
		{"duplicate instance name",
			"circuit c\ninputs a\noutputs z w\ngate u1 inv y=z a=a\ngate u1 inv y=w a=a\nend\n",
			"duplicate instance name"},
		{"net driven by input and gate",
			"circuit c\ninputs a z\noutputs z\ngate u1 inv y=z a=a\nend\n", "driven by both"},
		{"pin bound twice",
			"circuit c\ninputs a b\noutputs z\ngate u1 nand2 y=z a=a a=b b=b\nend\n", "bound twice"},
		{"binding without value",
			"circuit c\ninputs a\noutputs z\ngate u1 inv y=z a=\nend\n", "malformed binding"},
		{"binding without key",
			"circuit c\ninputs a\noutputs z\ngate u1 inv y=z =a\nend\n", "malformed binding"},
		{"binding without equals",
			"circuit c\ninputs a\noutputs z\ngate u1 inv y=z a\nend\n", "malformed binding"},
		{"gate line too short",
			"circuit c\ninputs a\noutputs a\ngate u1\nend\n", "gate line needs"},
		{"missing output net",
			"circuit c\ninputs a\noutputs z ghost\ngate u1 inv y=z a=a\nend\n", "undriven"},
		{"second circuit line",
			"circuit c\ncircuit d\ninputs a\noutputs a\nend\n", "second circuit"},
		{"circuit line without name",
			"circuit\ninputs a\noutputs a\nend\n", "exactly one name"},
		{"bad pu expression",
			"circuit c\ninputs a b\noutputs z\ngate u1 nand2 y=z a=a b=b pu=p(a,\nend\n", "pu"},
		{"combinational cycle",
			"circuit c\ninputs a\noutputs z\ngate u1 nand2 y=z a=a b=w\ngate u2 inv y=w a=z\nend\n",
			"cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadGNL(strings.NewReader(tc.src), lib)
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadGNLCommentAndBlankHandling: comments and blank lines are
// skipped anywhere, including inside and after gate lists.
func TestReadGNLCommentAndBlankHandling(t *testing.T) {
	src := "# header\n\ncircuit c # trailing\n  \ninputs a\n# mid\noutputs z\ngate u1 inv y=z a=a # gate comment\n\nend\n# trailer comments are fine before EOF\n"
	c, err := ReadGNL(strings.NewReader(src), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Name != "c" {
		t.Fatalf("parsed wrong circuit: %+v", c)
	}
}

// TestGNLInternParallelOrder checks that an ordering differing from the
// prototype only in parallel-branch order reads back as the prototype
// itself, and is written in the library's canonical order.
func TestGNLInternParallelOrder(t *testing.T) {
	src := "circuit p\ninputs a b\noutputs z\ngate u1 nand2 y=z a=a b=b pu=p(b,a)\nend\n"
	c, err := ReadGNL(strings.NewReader(src), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Cell != library.Default().MustCell("nand2").Proto {
		t.Errorf("pu=p(b,a) read as %v, not the nand2 prototype", c.Gates[0].Cell)
	}
	var buf strings.Builder
	if err := WriteGNL(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), " pd=s(a,b) pu=p(a,b)\n") {
		t.Errorf("written as:\n%s", buf.String())
	}
}

// TestGNLInternAnalysisIndependentOfNaming checks that a configuration's
// analysis does not depend on which parallel-branch order named it
// first: an aoi222 read with permuted pull-down branches is analyzed
// before the library member, and every analyzed node of both must be the
// member's own graph node (same path-function probabilities and
// capacitance sources), with bit-identical powers.
func TestGNLInternAnalysisIndependentOfNaming(t *testing.T) {
	src := "circuit p\ninputs a b c d e f\noutputs z\n" +
		"gate u1 aoi222 y=z a1=a a2=b b1=c b2=d c1=e c2=f pd=p(s(c1,c2),s(a1,a2),s(b1,b2))\nend\n"
	c, err := ReadGNL(strings.NewReader(src), library.Default())
	if err != nil {
		t.Fatal(err)
	}
	named := c.Gates[0].Cell
	member := library.Default().MustCell("aoi222").Proto
	gr, err := member.Graph()
	if err != nil {
		t.Fatal(err)
	}
	nodes := append(gr.InternalNodes(), gate.Y)
	rng := rand.New(rand.NewSource(7))
	prm := core.DefaultParams()
	for v := 0; v < 200; v++ {
		in := make([]stoch.Signal, 6)
		probs := make([]float64, 6)
		for k := range in {
			in[k] = stoch.Signal{P: rng.Float64(), D: 1e5 * rng.Float64()}
			probs[k] = in[k].P
		}
		first, err := core.AnalyzeGate(named, in, 1e-14, prm)
		if err != nil {
			t.Fatal(err)
		}
		second, err := core.AnalyzeGate(member, in, 1e-14, prm)
		if err != nil {
			t.Fatal(err)
		}
		if first.Power != second.Power {
			t.Fatalf("vector %d: power %v via the GNL name, %v via the library member", v, first.Power, second.Power)
		}
		for k, n := range nodes {
			for _, a := range []*core.GateAnalysis{first, second} {
				na := a.Nodes[k]
				if na.Name != gr.NodeName(n) || na.Sources != gr.Degree(n) ||
					na.PH != gr.H(n).Prob(probs) || na.PG != gr.G(n).Prob(probs) {
					t.Fatalf("vector %d: analyzed node %d (%s) is not member graph node %s", v, k, na.Name, gr.NodeName(n))
				}
			}
		}
	}
}
