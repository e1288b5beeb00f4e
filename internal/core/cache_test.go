package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gate"
	"repro/internal/sp"
	"repro/internal/stoch"
)

func TestTemplateCacheTransparent(t *testing.T) {
	// Two gate values with the same configuration share a template; the
	// analysis results must be identical to a fresh computation.
	g1 := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	g2 := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	in := []stoch.Signal{{P: 0.3, D: 1e5}, {P: 0.6, D: 2e5}, {P: 0.9, D: 3e5}}
	prm := DefaultParams()
	a1, err := AnalyzeGate(g1, in, 1e-15, prm)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AnalyzeGate(g2, in, 1e-15, prm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Power-a2.Power) > 1e-30 {
		t.Errorf("cached analysis differs: %g vs %g", a1.Power, a2.Power)
	}
	for i := range a1.Nodes {
		if a1.Nodes[i].T != a2.Nodes[i].T || a1.Nodes[i].P != a2.Nodes[i].P {
			t.Errorf("node %s drifted through the cache", a1.Nodes[i].Name)
		}
	}
}

func TestTemplateCacheConcurrent(t *testing.T) {
	// Hammer the cache from many goroutines on a cold key set; the race
	// detector (go test -race) validates the locking.
	g := gate.MustNew("aoi221x", []string{"p1", "p2", "q1", "q2", "r"},
		sp.MustParse("p(s(p1,p2),s(q1,q2),r)"))
	in := []stoch.Signal{
		{P: 0.1, D: 1e5}, {P: 0.3, D: 2e5}, {P: 0.5, D: 3e5},
		{P: 0.7, D: 4e5}, {P: 0.9, D: 5e5},
	}
	prm := DefaultParams()
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := AnalyzeGate(g, in, 0, prm)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a.Power
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("concurrent analyses disagree: %g vs %g", results[i], results[0])
		}
	}
}

func BenchmarkAnalyzeGateCached(b *testing.B) {
	g := gate.MustNew("aoi221", []string{"a1", "a2", "b1", "b2", "c"},
		sp.MustParse("p(s(a1,a2),s(b1,b2),c)"))
	in := []stoch.Signal{
		{P: 0.5, D: 1e4}, {P: 0.5, D: 1e5}, {P: 0.5, D: 1e6},
		{P: 0.5, D: 5e5}, {P: 0.5, D: 2e4},
	}
	prm := DefaultParams()
	if _, err := AnalyzeGate(g, in, 0, prm); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeGate(g, in, 0, prm); err != nil {
			b.Fatal(err)
		}
	}
}
