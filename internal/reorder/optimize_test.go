package reorder

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/sp"
	"repro/internal/stoch"
)

// equivCircuits returns the circuits the worker-equivalence property is
// pinned on: the local adder plus embedded benchmarks spanning single- and
// multi-output, small and large.
func equivCircuits(t testing.TB) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{"add2": testCircuit(t, adder2BLIF)}
	lib := library.Default()
	for _, name := range []string{"c17", "par8", "rca8"} {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	return out
}

// TestOptimizeWorkerEquivalence is the determinism property the optimizer
// promises in every mode: for any worker count, Optimize returns a
// bit-identical Report — same powers (exact float equality, not
// tolerance), same number of changed gates, same chosen configuration at
// every instance. The delay-aware modes choose in the serial commit loop,
// so for them the property pins the wavefront construction underneath.
// Run with -race this also exercises the parallel phase for data races.
func TestOptimizeWorkerEquivalence(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for name, c := range equivCircuits(t) {
		t.Run(name, func(t *testing.T) {
			pi := map[string]stoch.Signal{}
			for i, in := range c.Inputs {
				pi[in] = stoch.Signal{P: 0.3 + 0.05*float64(i%9), D: 1e5 * float64(1+i%7)}
			}
			for _, mode := range []Mode{Full, InputOnly, DelayRule, DelayNeutral} {
				for _, objective := range []Objective{Minimize, Maximize} {
					opt := DefaultOptions()
					opt.Mode = mode
					opt.Objective = objective
					opt.Workers = 1
					base, err := Optimize(c, pi, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, w := range workerCounts[1:] {
						opt.Workers = w
						rep, err := Optimize(c, pi, opt)
						if err != nil {
							t.Fatal(err)
						}
						if rep.PowerBefore != base.PowerBefore || rep.PowerAfter != base.PowerAfter {
							t.Errorf("%s/%s workers=%d: power (%g, %g) != serial (%g, %g)",
								mode, objectiveName(objective), w,
								rep.PowerBefore, rep.PowerAfter, base.PowerBefore, base.PowerAfter)
						}
						if rep.GatesChanged != base.GatesChanged {
							t.Errorf("%s/%s workers=%d: %d gates changed, serial changed %d",
								mode, objectiveName(objective), w, rep.GatesChanged, base.GatesChanged)
						}
						for i, g := range rep.Circuit.Gates {
							if want := base.Circuit.Gates[i].Cell.ConfigKey(); g.Cell.ConfigKey() != want {
								t.Fatalf("%s/%s workers=%d: instance %s chose %s, serial chose %s",
									mode, objectiveName(objective), w, g.Name, g.Cell.ConfigKey(), want)
							}
						}
					}
				}
			}
		})
	}
}

func objectiveName(o Objective) string {
	if o == Maximize {
		return "max"
	}
	return "min"
}

// TestOptimizeWorkersIdempotent carries the Section 4.2 monotonicity
// check (one traversal suffices) onto the parallel engine: a second pass
// changes nothing at any worker count.
func TestOptimizeWorkersIdempotent(t *testing.T) {
	c := testCircuit(t, adder2BLIF)
	pi := rcaStats(c)
	for _, w := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Workers = w
		rep1, err := Optimize(c, pi, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := Optimize(rep1.Circuit, pi, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.GatesChanged != 0 {
			t.Errorf("workers=%d: second pass changed %d gates", w, rep2.GatesChanged)
		}
	}
}

// TestCurrentInstanceCoversLibrary exercises the orbit lookup for every
// configuration of every library cell: the returned orbit must be exactly
// the Instances partition member containing the configuration.
func TestCurrentInstanceCoversLibrary(t *testing.T) {
	for _, cell := range library.Default().Cells() {
		for _, inst := range cell.Proto.Instances() {
			want := map[string]bool{}
			for _, cfg := range inst.Configs {
				want[cfg.ConfigKey()] = true
			}
			for _, cfg := range inst.Configs {
				orbit := currentInstance(cfg)
				if len(orbit) != len(inst.Configs) {
					t.Fatalf("%s: orbit of %s has %d configs, instance %s has %d",
						cell.Proto.Name, cfg.ConfigKey(), len(orbit), inst.Label, len(inst.Configs))
				}
				for _, o := range orbit {
					if !want[o.ConfigKey()] {
						t.Fatalf("%s: orbit of %s contains foreign config %s",
							cell.Proto.Name, cfg.ConfigKey(), o.ConfigKey())
					}
				}
			}
		}
	}
}

// TestCurrentInstancePanicsOnForeignConfig covers the lookup's panic path:
// a hand-built gate is not the interned gate of its configuration, so its
// orbit lookup must fail loudly rather than silently optimize over the
// wrong set.
func TestCurrentInstancePanicsOnForeignConfig(t *testing.T) {
	bad := &gate.Gate{
		Name:   "bad",
		Inputs: []string{"a", "b", "c"},
		PD:     sp.S(sp.S(sp.L("a"), sp.L("b")), sp.L("c")),
		PU:     sp.P(sp.P(sp.L("a"), sp.L("b")), sp.L("c")),
	}
	defer func() {
		if recover() == nil {
			t.Fatal("currentInstance accepted a configuration outside its own partition")
		}
	}()
	currentInstance(bad)
}

// TestDelayNeutralRejectsUninternedGate: the delay-neutral limit is the
// current configuration's arrival, found by pointer among AllConfigs; a
// hand-built gate has none, which is an error rather than a zero limit.
func TestDelayNeutralRejectsUninternedGate(t *testing.T) {
	literal := &gate.Gate{Name: "nand2", Inputs: []string{"a", "b"}, PD: sp.MustParse("s(a,b)"), PU: sp.MustParse("p(a,b)")}
	c := &circuit.Circuit{
		Name: "lit", Inputs: []string{"x", "y"}, Outputs: []string{"z"},
		Gates: []*circuit.Instance{{Name: "g1", Cell: literal, Pins: []string{"x", "y"}, Out: "z"}},
	}
	pi := map[string]stoch.Signal{"x": {P: 0.5, D: 1e5}, "y": {P: 0.5, D: 2e5}}
	opt := DefaultOptions()
	opt.Mode = DelayNeutral
	if _, err := Optimize(c, pi, opt); err == nil || !strings.Contains(err.Error(), "not interned") {
		t.Fatalf("err = %v, want a not-interned error", err)
	}
}

// TestBestAndWorstMultiOutput runs the Table 3 pair on a multi-output
// benchmark and checks the spread, per-output function preservation, and
// that both directions report the same starting power.
func TestBestAndWorstMultiOutput(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("mul2", lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outputs) < 2 {
		t.Fatalf("mul2 has %d outputs; want a multi-output benchmark", len(c.Outputs))
	}
	pi := map[string]stoch.Signal{}
	for i, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5 * float64(1+i%3)}
	}
	best, worst, err := BestAndWorst(c, pi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if best.PowerBefore != worst.PowerBefore {
		t.Errorf("best and worst disagree on starting power: %g vs %g", best.PowerBefore, worst.PowerBefore)
	}
	if best.PowerAfter > worst.PowerAfter {
		t.Errorf("best %g above worst %g", best.PowerAfter, worst.PowerAfter)
	}
	for _, rep := range []*Report{best, worst} {
		ok, witness, err := circuit.Equivalent(c, rep.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("reordered circuit is not equivalent: %s", witness)
		}
	}
}
