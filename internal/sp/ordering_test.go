package sp

import (
	"testing"
)

func TestCountOrderingsLibraryShapes(t *testing.T) {
	// The #C column of Table 2 is the product of the counts of the two
	// networks; here we check single networks against hand-computed values.
	cases := []struct {
		src  string
		want int
	}{
		{"a", 1},
		{"s(a,b)", 2},
		{"p(a,b)", 1},
		{"s(a,b,c)", 6},
		{"s(a,b,c,d)", 24},
		{"p(a,b,c,d)", 1},
		{"s(p(a1,a2),b)", 2},          // oai21 PDN
		{"p(s(a1,a2),b)", 2},          // aoi21 PDN
		{"p(s(a1,a2),s(b1,b2))", 4},   // aoi22 PDN
		{"s(p(a1,a2),p(b1,b2))", 2},   // aoi22 PUN
		{"p(s(a1,a2),b,c)", 2},        // aoi211 PDN
		{"s(p(a1,a2),b,c)", 6},        // aoi211 PUN: 3! series orders
		{"p(s(a1,a2),s(b1,b2),c)", 4}, // aoi221 PDN
		{"s(p(a1,a2),p(b1,b2),c)", 6}, // aoi221 PUN
		{"p(s(a1,a2,a3),b)", 6},       // aoi31 PDN
		{"s(p(a1,a2,a3),b)", 2},       // aoi31 PUN
		{"s(s(a,b),c)", 6},            // flattening: chain of 3
	}
	for _, c := range cases {
		e := MustParse(c.src)
		if got := CountOrderings(e); got != c.want {
			t.Errorf("CountOrderings(%s) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestOrderingsMatchesCount(t *testing.T) {
	srcs := []string{
		"a", "s(a,b)", "p(a,b)", "s(a,b,c)", "s(p(a1,a2),b)",
		"p(s(a1,a2),s(b1,b2),c)", "s(p(a1,a2),p(b1,b2),c)",
		"p(s(a1,a2,a3),b)", "s(a,b,c,d)",
	}
	for _, src := range srcs {
		e := MustParse(src)
		got := Orderings(e)
		if len(got) != CountOrderings(e) {
			t.Errorf("Orderings(%s): %d variants, count says %d", src, len(got), CountOrderings(e))
		}
		// All distinct, all same shape, all same conduction function.
		names := e.Inputs()
		vars := map[string]int{}
		for i, n := range names {
			vars[n] = i
		}
		ref, err := e.Conduction(vars, len(names), false)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, v := range got {
			k := v.ConfigKey()
			if seen[k] {
				t.Errorf("Orderings(%s): duplicate config %s", src, k)
			}
			seen[k] = true
			if v.ShapeKey() != e.Flatten().ShapeKey() {
				t.Errorf("Orderings(%s): variant %s has different shape", src, k)
			}
			f, err := v.Conduction(vars, len(names), false)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(ref) {
				t.Errorf("Orderings(%s): variant %s changed the conduction function", src, k)
			}
		}
	}
}

func TestOrderingsIncludesIdentity(t *testing.T) {
	e := MustParse("s(p(a1,a2),b)")
	found := false
	for _, v := range Orderings(e) {
		if v.ConfigKey() == e.ConfigKey() {
			found = true
		}
	}
	if !found {
		t.Error("identity configuration missing from Orderings")
	}
}

func TestPivotAdjacentTransposition(t *testing.T) {
	e := MustParse("s(a,b,c)")
	// Node 0 is between a and b; node 1 between b and c.
	if got := Pivot(e, 0).String(); got != "s(b,a,c)" {
		t.Errorf("Pivot(0) = %s, want s(b,a,c)", got)
	}
	if got := Pivot(e, 1).String(); got != "s(a,c,b)" {
		t.Errorf("Pivot(1) = %s, want s(a,c,b)", got)
	}
}

func TestPivotNestedNode(t *testing.T) {
	// p(s(a,b),s(c,d)): node 0 inside first branch, node 1 inside second.
	e := MustParse("p(s(a,b),s(c,d))")
	if got := Pivot(e, 0).String(); got != "p(s(b,a),s(c,d))" {
		t.Errorf("Pivot(0) = %s", got)
	}
	if got := Pivot(e, 1).String(); got != "p(s(a,b),s(d,c))" {
		t.Errorf("Pivot(1) = %s", got)
	}
}

func TestPivotIsInvolution(t *testing.T) {
	e := MustParse("s(p(a1,a2),b,c)")
	for i := 0; i < e.NumInternalNodes(); i++ {
		back := Pivot(Pivot(e, i), i)
		if back.ConfigKey() != e.Flatten().ConfigKey() {
			t.Errorf("pivot %d twice != identity: %v", i, back)
		}
	}
}

func TestPivotOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pivot did not panic")
		}
	}()
	Pivot(MustParse("s(a,b)"), 1)
}

func TestAutomorphismsSymmetricPair(t *testing.T) {
	e := MustParse("s(p(a1,a2),b)")
	autos := Automorphisms(e)
	// Identity and the a1↔a2 swap.
	if len(autos) != 2 {
		t.Fatalf("Automorphisms = %d maps, want 2", len(autos))
	}
}

func TestAutomorphismsNested(t *testing.T) {
	// s(a,p(b,s(c,d))): the only nontrivial symmetry is c↔d — a and b sit
	// at structurally distinct positions. (Every read-once SP network has
	// at least one symmetric innermost pair, so a symmetry-free composite
	// network does not exist.)
	e := MustParse("s(a,p(b,s(c,d)))")
	autos := Automorphisms(e)
	if len(autos) != 2 {
		t.Fatalf("nested network has %d automorphisms, want 2", len(autos))
	}
}

func TestAutomorphismsAOI22(t *testing.T) {
	// a1a2 + b1b2: swaps within each pair and the block swap: 2·2·2 = 8.
	e := MustParse("p(s(a1,a2),s(b1,b2))")
	if got := len(Automorphisms(e)); got != 8 {
		t.Fatalf("aoi22 PDN automorphisms = %d, want 8", got)
	}
}

func TestFactorial(t *testing.T) {
	want := []int{1, 1, 2, 6, 24, 120}
	for k, w := range want {
		if got := factorial(k); got != w {
			t.Errorf("factorial(%d) = %d, want %d", k, got, w)
		}
	}
}

func BenchmarkOrderingsAOI222(b *testing.B) {
	e := MustParse("p(s(a1,a2),s(b1,b2),s(c1,c2))")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := Orderings(e); len(got) != 8 {
			b.Fatalf("got %d", len(got))
		}
	}
}
