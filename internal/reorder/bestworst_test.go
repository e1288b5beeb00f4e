package reorder_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
)

var allModes = []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral}

// TestBestAndWorstMatchesTwoOptimizeCalls pins BestAndWorst's shared
// passes to the plain path they replace: on every embedded benchmark and
// every Table 3 circuit, under scenario A and B statistics, in every mode
// and at worker counts 1, 4 and GOMAXPROCS, both reports equal two
// Optimize calls exactly — powers by float equality, configurations by
// pointer — and the two reports share no instance.
func TestBestAndWorstMatchesTwoOptimizeCalls(t *testing.T) {
	names := append(mcnc.EmbeddedNames(), mcnc.Names()...)
	lib := library.Default()
	eo := expt.DefaultOptions()
	for _, name := range names {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []expt.Scenario{expt.ScenarioA, expt.ScenarioB} {
			pi := expt.InputStats(c, sc, eo)
			for _, mode := range allModes {
				opt := reorder.DefaultOptions()
				opt.Mode = mode
				opt.Workers = 1
				opt.Objective = reorder.Minimize
				wantBest, err := reorder.Optimize(c, pi, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Objective = reorder.Maximize
				wantWorst, err := reorder.Optimize(c, pi, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
					at := fmt.Sprintf("%s/%s/%s/workers=%d", name, sc, mode, w)
					opt.Workers = w
					best, worst, err := reorder.BestAndWorst(c, pi, opt)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if msg := diffReport(best, wantBest); msg != "" {
						t.Fatalf("%s best: %s", at, msg)
					}
					if msg := diffReport(worst, wantWorst); msg != "" {
						t.Fatalf("%s worst: %s", at, msg)
					}
					if msg := shareInstances(c, best.Circuit, worst.Circuit); msg != "" {
						t.Fatalf("%s: %s", at, msg)
					}
				}
			}
		}
	}
}

// diffReport describes how got differs from want, or returns "".
func diffReport(got, want *reorder.Report) string {
	if got.PowerBefore != want.PowerBefore || got.PowerAfter != want.PowerAfter || got.GatesChanged != want.GatesChanged {
		return fmt.Sprintf("report (%d, %g, %g), Optimize (%d, %g, %g)",
			got.GatesChanged, got.PowerBefore, got.PowerAfter,
			want.GatesChanged, want.PowerBefore, want.PowerAfter)
	}
	for i, g := range got.Circuit.Gates {
		if w := want.Circuit.Gates[i]; g.Name != w.Name || g.Cell != w.Cell {
			return fmt.Sprintf("instance %s chose %s, Optimize's %s chose %s", g.Name, g.Cell.ConfigKey(), w.Name, w.Cell.ConfigKey())
		}
	}
	return ""
}

// shareInstances reports an instance that the input, best or worst
// circuits have in common, or a reconfiguration of best that leaks into
// worst; it returns "" when the three are independent. best is restored
// before returning.
func shareInstances(in, best, worst *circuit.Circuit) string {
	seen := map[*circuit.Instance]string{}
	for name, c := range map[string]*circuit.Circuit{"input": in, "best": best, "worst": worst} {
		for _, g := range c.Gates {
			if other, ok := seen[g]; ok {
				return fmt.Sprintf("instance %s shared by %s and %s", g.Name, other, name)
			}
			seen[g] = name
		}
	}
	for i, g := range best.Gates {
		cfgs := g.Cell.AllConfigs()
		if len(cfgs) < 2 {
			continue
		}
		old, want := g.Cell, worst.Gates[i].Cell
		g.Cell = cfgs[0]
		if g.Cell == old {
			g.Cell = cfgs[1]
		}
		leaked := worst.Gates[i].Cell != want
		g.Cell = old
		if leaked {
			return fmt.Sprintf("setting best's %s changed worst's", g.Name)
		}
		break
	}
	return ""
}

// BenchmarkBestAndWorst measures one best/worst pair per mode on a
// 316-gate Table 3 circuit under scenario A statistics, serial search.
func BenchmarkBestAndWorst(b *testing.B) {
	c, err := mcnc.Load("b9", library.Default())
	if err != nil {
		b.Fatal(err)
	}
	pi := expt.InputStats(c, expt.ScenarioA, expt.DefaultOptions())
	for _, mode := range allModes {
		b.Run(mode.String(), func(b *testing.B) {
			opt := reorder.DefaultOptions()
			opt.Mode = mode
			opt.Workers = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := reorder.BestAndWorst(c, pi, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
