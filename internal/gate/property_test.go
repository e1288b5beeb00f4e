package gate

import (
	"math/rand"
	"testing"

	"repro/internal/sp"
)

func TestPropertyPivotSearchCompleteOnRandomGates(t *testing.T) {
	// [5]'s completeness theorem, checked empirically: the pivot search
	// discovers exactly the combinatorial configuration set for random
	// read-once gates, visiting each configuration once, and the set's
	// size is the product of the two networks' closed-form ordering
	// counts.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		pd := sp.RandomExpr(rng, n)
		g, err := New("rnd", pd.Inputs(), pd)
		if err != nil {
			t.Fatal(err)
		}
		count := sp.CountOrderings(g.PD) * sp.CountOrderings(g.PU)
		if count > 200 {
			continue // keep the test fast
		}
		want := map[string]bool{}
		for _, c := range g.AllConfigs() {
			want[c.ConfigKey()] = true
		}
		found := g.FindAllConfigs(nil)
		got := map[string]bool{}
		for _, c := range found {
			got[c.ConfigKey()] = true
		}
		if len(found) != count || len(got) != count || len(want) != count {
			t.Fatalf("gate %v: pivot search %d (%d distinct), combinatorial %d, count %d",
				g, len(found), len(got), len(want), count)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("gate %v: pivot search missed %s", g, k)
			}
		}
	}
}

func TestPropertyInstancesPartitionConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		pd := sp.RandomExpr(rng, n)
		g, err := New("rnd", pd.Inputs(), pd)
		if err != nil {
			t.Fatal(err)
		}
		if g.CountConfigs() > 60 {
			continue
		}
		seen := map[string]int{}
		total := 0
		for _, inst := range g.Instances() {
			for _, cfg := range inst.Configs {
				seen[cfg.ConfigKey()]++
				total++
			}
		}
		if total != g.CountConfigs() {
			t.Fatalf("gate %v: instances cover %d of %d configs", g, total, g.CountConfigs())
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("gate %v: config %s appears in %d instances", g, k, c)
			}
		}
	}
}

func TestInstancesExtremes(t *testing.T) {
	// Fully symmetric chain: all orderings reachable by rewiring → one
	// instance holding every configuration.
	nand4 := MustNew("nand4", []string{"a", "b", "c", "d"}, sp.MustParse("s(a,b,c,d)"))
	inst := nand4.Instances()
	if len(inst) != 1 || len(inst[0].Configs) != 24 {
		t.Errorf("nand4 instances = %d with %d configs, want 1 with 24", len(inst), len(inst[0].Configs))
	}
	// aoi222: the block and pair symmetries fold all 48 configurations
	// into a single layout.
	aoi222 := MustNew("aoi222", []string{"a1", "a2", "b1", "b2", "c1", "c2"},
		sp.MustParse("p(s(a1,a2),s(b1,b2),s(c1,c2))"))
	inst = aoi222.Instances()
	if len(inst) != 1 || len(inst[0].Configs) != 48 {
		t.Errorf("aoi222 instances = %d, want 1 with all 48 configs", len(inst))
	}
}

func TestPropertyGraphNodeCounts(t *testing.T) {
	// Internal node count of the graph equals the sum over both networks
	// of their series boundaries, for random gates.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		pd := sp.RandomExpr(rng, n)
		g, err := New("rnd", pd.Inputs(), pd)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := g.Graph()
		if err != nil {
			t.Fatal(err)
		}
		want := g.PD.NumInternalNodes() + g.PU.NumInternalNodes()
		if gr.NumInternal() != want {
			t.Fatalf("gate %v: %d internal nodes, want %d", g, gr.NumInternal(), want)
		}
		if len(gr.Edges) != 2*n {
			t.Fatalf("gate %v: %d edges, want %d", g, len(gr.Edges), 2*n)
		}
	}
}
