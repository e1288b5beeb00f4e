package sp

import (
	"math/rand"
	"testing"
)

func TestRandomExprValid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		e := RandomExpr(rng, n)
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid random expr %v: %v", e, err)
		}
		if e.NumTransistors() != n {
			t.Fatalf("expr %v has %d transistors, want %d", e, e.NumTransistors(), n)
		}
	}
}

func TestRandomExprPropertyOrderingCount(t *testing.T) {
	// Property: for any network, Orderings agrees with CountOrderings.
	// The pivot search's side of the property runs on whole gates, in
	// internal/gate's TestPropertyPivotSearchCompleteOnRandomGates.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		e := RandomExpr(rng, n)
		want := CountOrderings(e)
		if want > 200 {
			continue // keep the test fast
		}
		if got := len(Orderings(e)); got != want {
			t.Fatalf("%v: Orderings %d, count %d", e, got, want)
		}
	}
}

func TestRandomExprPropertyDualComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		e := RandomExpr(rng, n)
		vars := map[string]int{}
		for i, name := range e.Inputs() {
			vars[name] = i
		}
		pd, err := e.Conduction(vars, n, false)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := e.Dual().Conduction(vars, n, true)
		if err != nil {
			t.Fatal(err)
		}
		if !pu.Equal(pd.Not()) {
			t.Fatalf("%v: dual with negated literals is not the complement", e)
		}
	}
}

func TestRandomExprPropertyAutomorphismsFormGroup(t *testing.T) {
	// The automorphism set must contain the identity and be closed under
	// composition (spot-check: every composition of two automorphisms is
	// again shape-preserving).
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		e := RandomExpr(rng, n)
		autos := Automorphisms(e)
		shape := e.ShapeKey()
		hasIdentity := false
		for _, m := range autos {
			id := true
			for k, v := range m {
				if k != v {
					id = false
				}
			}
			if id {
				hasIdentity = true
			}
		}
		if !hasIdentity {
			t.Fatalf("%v: identity missing from automorphisms", e)
		}
		for i := 0; i < len(autos) && i < 5; i++ {
			for j := 0; j < len(autos) && j < 5; j++ {
				comp := map[string]string{}
				for k, v := range autos[i] {
					comp[k] = autos[j][v]
				}
				if e.RenameInputs(comp).ShapeKey() != shape {
					t.Fatalf("%v: composition of automorphisms is not one", e)
				}
			}
		}
	}
}
