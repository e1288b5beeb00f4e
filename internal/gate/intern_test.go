package gate

import (
	"sync"
	"testing"

	"repro/internal/sp"
)

// TestAllConfigsMemoized asserts the cache contract: repeated calls —
// from any member of the enumeration — return the same canonical slice
// without re-enumerating.
func TestAllConfigsMemoized(t *testing.T) {
	g := MustNew("cc_nand3", []string{"a", "b", "c"}, sp.S(sp.L("a"), sp.L("b"), sp.L("c")))
	first := g.AllConfigs()
	if len(first) == 0 {
		t.Fatal("no configurations")
	}
	if again := g.AllConfigs(); &again[0] != &first[0] {
		t.Error("second AllConfigs call re-enumerated instead of hitting the cache")
	}
	// Any member of the orbit shares the entry.
	for _, cfg := range first {
		if via := cfg.AllConfigs(); &via[0] != &first[0] {
			t.Fatalf("AllConfigs via member %s missed the shared cache entry", cfg.ConfigKey())
		}
	}
}

// TestInstancesMemoized is the same contract for the orbit partition.
func TestInstancesMemoized(t *testing.T) {
	g := MustNew("cc_aoi22", []string{"a", "b", "c", "d"},
		sp.P(sp.S(sp.L("a"), sp.L("b")), sp.S(sp.L("c"), sp.L("d"))))
	first := g.Instances()
	if len(first) == 0 {
		t.Fatal("no instances")
	}
	if again := g.Instances(); &again[0] != &first[0] {
		t.Error("second Instances call re-partitioned instead of hitting the cache")
	}
	for _, inst := range first {
		for _, cfg := range inst.Configs {
			if via := cfg.Instances(); &via[0] != &first[0] {
				t.Fatalf("Instances via member %s missed the shared cache entry", cfg.ConfigKey())
			}
		}
	}
}

// TestConfigCacheConcurrent hammers the registry from many goroutines
// (run with -race): concurrent first interns of a fresh cell must agree
// pointer for pointer, and all callers observe one canonical enumeration.
func TestConfigCacheConcurrent(t *testing.T) {
	pd := sp.S(sp.P(sp.L("a"), sp.L("b")), sp.L("c"), sp.L("d"))
	const goroutines = 16
	protos := make([]*Gate, goroutines)
	results := make([][]*Gate, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			protos[i] = MustNew("cc_oai211", []string{"a", "b", "c", "d"}, pd)
			results[i] = protos[i].AllConfigs()
			protos[i].Instances()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if protos[i] != protos[0] {
			t.Fatalf("goroutine %d interned a second gate for the same configuration", i)
		}
		if len(results[i]) != len(results[0]) {
			t.Fatalf("goroutine %d saw %d configs, goroutine 0 saw %d", i, len(results[i]), len(results[0]))
		}
		for k := range results[i] {
			if results[i][k] != results[0][k] {
				t.Fatalf("goroutine %d: config %d is a different pointer", i, k)
			}
		}
	}
}

// TestInternConstructorsReturnMember checks the identity rule: every way
// of naming a configuration — New, NewWithPU, WithOrdering with permuted
// parallel branches, the pivot search — yields the AllConfigs member.
func TestInternConstructorsReturnMember(t *testing.T) {
	inputs := []string{"a1", "a2", "b1", "b2", "c"}
	g := MustNew("cc_aoi221", inputs, sp.MustParse("p(s(a1,a2),s(b1,b2),c)"))
	all := g.AllConfigs()
	member := func(x *Gate) bool {
		for _, cfg := range all {
			if cfg == x {
				return true
			}
		}
		return false
	}
	if !member(g) {
		t.Fatal("New returned a gate outside AllConfigs")
	}
	if again := MustNew("cc_aoi221", inputs, sp.MustParse("p(s(a1,a2),s(b1,b2),c)")); again != g {
		t.Errorf("second New of the prototype: %v, want %v", again, g)
	}
	permuted, err := NewWithPU("cc_aoi221", inputs, sp.MustParse("p(c,s(b1,b2),s(a1,a2))"), g.PU)
	if err != nil {
		t.Fatal(err)
	}
	if permuted != g {
		t.Errorf("NewWithPU with permuted parallel branches: %v, want %v", permuted, g)
	}
	withPU, err := NewWithPU("cc_aoi221", inputs, g.PD, sp.MustParse("s(c,p(b2,b1),p(a1,a2))"))
	if err != nil {
		t.Fatal(err)
	}
	if !member(withPU) || withPU.PU.ConfigKey() != "s(c,p(b1,b2),p(a1,a2))" {
		t.Errorf("NewWithPU returned %v, not its AllConfigs member", withPU)
	}
	for _, cfg := range all {
		re, err := g.WithOrdering(reverseParallel(cfg.PD), reverseParallel(cfg.PU))
		if err != nil {
			t.Fatal(err)
		}
		if re != cfg {
			t.Fatalf("WithOrdering(%v reversed) = %v, a different pointer", cfg, re)
		}
	}
	found := g.FindAllConfigs(nil)
	if len(found) != len(all) {
		t.Fatalf("pivot search found %d configs, want %d", len(found), len(all))
	}
	for _, cfg := range found {
		if !member(cfg) {
			t.Fatalf("FindAllConfigs returned %v, not its AllConfigs member", cfg)
		}
	}
}

// reverseParallel returns e with the branch order of every parallel node
// reversed: the same configuration written differently.
func reverseParallel(e *sp.Expr) *sp.Expr {
	if e.Kind == sp.Leaf {
		return e
	}
	children := make([]*sp.Expr, len(e.Children))
	for i, c := range e.Children {
		children[i] = reverseParallel(c)
	}
	if e.Kind == sp.Parallel {
		for i, j := 0, len(children)-1; i < j; i, j = i+1, j-1 {
			children[i], children[j] = children[j], children[i]
		}
	}
	return &sp.Expr{Kind: e.Kind, Children: children}
}

// TestConfigCacheDistinguishesCells guards the key: two cells with
// identical networks but different names must not share entries (the
// enumerated gates carry the cell name).
func TestConfigCacheDistinguishesCells(t *testing.T) {
	a := MustNew("cc_keyed_a", []string{"x", "y"}, sp.S(sp.L("x"), sp.L("y")))
	b := MustNew("cc_keyed_b", []string{"x", "y"}, sp.S(sp.L("x"), sp.L("y")))
	for _, cfg := range a.AllConfigs() {
		if cfg.Name != "cc_keyed_a" {
			t.Fatalf("config of cell a named %q", cfg.Name)
		}
	}
	for _, cfg := range b.AllConfigs() {
		if cfg.Name != "cc_keyed_b" {
			t.Fatalf("config of cell b named %q", cfg.Name)
		}
	}
}
