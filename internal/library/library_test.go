package library

import (
	"testing"

	"repro/internal/logic"
)

func TestTable2ConfigCounts(t *testing.T) {
	// The #C column of the paper's Table 2, cross-checked against the
	// closed-form products: chains give k!·k'!, complex
	// gates multiply the two networks' independent ordering counts.
	want := map[string]int{
		"inv":    1,
		"nand2":  2,
		"nand3":  6,
		"nand4":  24,
		"nor2":   2,
		"nor3":   6,
		"nor4":   24,
		"aoi21":  4,
		"aoi22":  8,
		"aoi31":  12,
		"aoi211": 12,
		"aoi221": 24,
		"aoi222": 48,
		"oai21":  4,
		"oai22":  8,
		"oai31":  12,
		"oai211": 12,
		"oai221": 24,
		"oai222": 48,
	}
	l := Default()
	if len(l.Cells()) != len(want) {
		t.Fatalf("library has %d cells, want %d", len(l.Cells()), len(want))
	}
	for name, w := range want {
		c, ok := l.Cell(name)
		if !ok {
			t.Errorf("cell %s missing", name)
			continue
		}
		if c.Configs != w {
			t.Errorf("cell %s: #C = %d, want %d", name, c.Configs, w)
		}
	}
}

func TestTable2InstanceCounts(t *testing.T) {
	// The bracket column of Table 2: aoi21[A,B], aoi31[A,B],
	// aoi211[A,B,C], aoi221[A,B,C]; symmetric cells collapse to one
	// instance (aoi22, aoi222, chains).
	want := map[string]int{
		"inv":    1,
		"nand2":  1,
		"nand3":  1,
		"nand4":  1,
		"nor2":   1,
		"nor3":   1,
		"nor4":   1,
		"aoi21":  2,
		"aoi22":  1,
		"aoi31":  2,
		"aoi211": 3,
		"aoi221": 3,
		"aoi222": 1,
		"oai21":  2,
		"oai22":  1,
		"oai31":  2,
		"oai211": 3,
		"oai221": 3,
		"oai222": 1,
	}
	for name, w := range want {
		c := Default().MustCell(name)
		if got := len(c.Instances); got != w {
			t.Errorf("cell %s: instances = %d, want %d", name, got, w)
		}
		// Instances partition the configurations.
		total := 0
		for _, in := range c.Instances {
			total += len(in.Configs)
		}
		if total != c.Configs {
			t.Errorf("cell %s: instance partition covers %d of %d configs", name, total, c.Configs)
		}
	}
}

func TestCellFunctions(t *testing.T) {
	l := Default()
	cases := []struct {
		name  string
		expr  string
		names []string
	}{
		{"inv", "!a", []string{"a"}},
		{"nand2", "!(a b)", []string{"a", "b"}},
		{"nand3", "!(a b c)", []string{"a", "b", "c"}},
		{"nor2", "!(a + b)", []string{"a", "b"}},
		{"nor4", "!(a + b + c + d)", []string{"a", "b", "c", "d"}},
		{"aoi21", "!(a1 a2 + b)", []string{"a1", "a2", "b"}},
		{"aoi22", "!(a1 a2 + b1 b2)", []string{"a1", "a2", "b1", "b2"}},
		{"aoi221", "!(a1 a2 + b1 b2 + c)", []string{"a1", "a2", "b1", "b2", "c"}},
		{"oai21", "!((a1 + a2) b)", []string{"a1", "a2", "b"}},
		{"oai222", "!((a1 + a2)(b1 + b2)(c1 + c2))", []string{"a1", "a2", "b1", "b2", "c1", "c2"}},
	}
	for _, tc := range cases {
		c := l.MustCell(tc.name)
		want := logic.MustParseExpr(tc.expr, tc.names)
		if !c.Func.Equal(want) {
			t.Errorf("cell %s function = %v, want %v", tc.name, c.Func, want)
		}
	}
}

func TestAreaUnchangedAcrossConfigs(t *testing.T) {
	// Paper Sec. 5.1: all instances of a gate have the same area, so the
	// optimized circuit's area is unchanged. Here area = transistor count,
	// trivially invariant; assert it for every configuration.
	for _, c := range Default().Cells() {
		for _, cfg := range c.Proto.AllConfigs() {
			if cfg.NumTransistors() != c.Area {
				t.Errorf("cell %s config %s changed area", c.Name, cfg.ConfigKey())
			}
		}
	}
}

func TestMatchIdentity(t *testing.T) {
	l := Default()
	for _, c := range l.Cells() {
		cell, perm, ok := l.Match(c.Func)
		if !ok {
			t.Errorf("cell %s does not match its own function", c.Name)
			continue
		}
		if cell.Name != c.Name {
			// Different cell with the same function would be a library bug.
			t.Errorf("cell %s matched %s", c.Name, cell.Name)
		}
		if len(perm) != len(c.Inputs) {
			t.Errorf("cell %s: binding has %d entries", c.Name, len(perm))
		}
	}
}

func TestMatchPermuted(t *testing.T) {
	// aoi21 with inputs permuted: f = ¬(b·c + a) over (a,b,c) should match
	// aoi21 with pins a1→b-var etc.
	l := Default()
	f := logic.MustParseExpr("!(b c + a)", []string{"a", "b", "c"})
	cell, perm, ok := l.Match(f)
	if !ok {
		t.Fatal("permuted aoi21 not matched")
	}
	if cell.Name != "aoi21" {
		t.Fatalf("matched %s, want aoi21", cell.Name)
	}
	// Verify the binding: cellFunc with variables renamed by perm equals f.
	if !cell.Func.PermuteVars(perm).Equal(f) {
		t.Error("returned binding does not reproduce the function")
	}
}

func TestMatchRejectsNonLibraryFunction(t *testing.T) {
	l := Default()
	// XOR is not in the library.
	f := logic.MustParseExpr("a !b + !a b", []string{"a", "b"})
	if _, _, ok := l.Match(f); ok {
		t.Error("xor matched a library cell")
	}
	// Non-inverting AND is not in the library either.
	g := logic.MustParseExpr("a b", []string{"a", "b"})
	if _, _, ok := l.Match(g); ok {
		t.Error("and matched a library cell")
	}
}

func TestMustCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCell on missing cell did not panic")
		}
	}()
	Default().MustCell("nand17")
}

func TestBuildRejectsDuplicates(t *testing.T) {
	_, err := Build([]cellDef{
		{"inv", []string{"a"}, "a"},
		{"inv", []string{"a"}, "a"},
	})
	if err == nil {
		t.Error("duplicate cell accepted")
	}
}

func TestBuildRejectsBadTopology(t *testing.T) {
	_, err := Build([]cellDef{{"broken", []string{"a"}, "s(a"}})
	if err == nil {
		t.Error("unparseable topology accepted")
	}
	_, err = Build([]cellDef{{"broken", []string{"a", "b"}, "s(a,a)"}})
	if err == nil {
		t.Error("duplicated-input topology accepted")
	}
}

func TestTable2RowsComplete(t *testing.T) {
	rows := Default().Table2()
	if len(rows) != 19 {
		t.Fatalf("Table2 has %d rows, want 19", len(rows))
	}
	for _, r := range rows {
		if r.Configs < 1 || r.Instances < 1 || r.Area < 2 && r.Name != "inv" {
			t.Errorf("suspicious row %+v", r)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Default().Names()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func BenchmarkLibraryBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(defaultDefs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatch(b *testing.B) {
	l := Default()
	f := logic.MustParseExpr("!(b c + a)", []string{"a", "b", "c"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := l.Match(f); !ok {
			b.Fatal("no match")
		}
	}
}
