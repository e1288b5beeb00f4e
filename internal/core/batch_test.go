package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/stoch"
)

// TestAnalyzeConfigsMatchesAnalyzeGate pins the batched path to the
// reference evaluator bit for bit: for every configuration of every
// library cell, under several signal vectors (the probability endpoints
// 0 and 1 among them), the summary numbers of AnalyzeConfigs must equal
// AnalyzeGate's exactly (the minterm table reproduces Prob's products and
// sums, and the two share the rest operation for operation), and the
// candidate order must be AllConfigs order.
func TestAnalyzeConfigsMatchesAnalyzeGate(t *testing.T) {
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(7))
	for _, cell := range library.Default().Cells() {
		g := cell.Proto
		vectors := make([][]stoch.Signal, 5)
		for v := range vectors {
			in := make([]stoch.Signal, len(g.Inputs))
			for i := range in {
				switch v {
				case 0:
					in[i] = stoch.Signal{P: 0.15 + 0.1*float64(i), D: 1e5 * float64(i+1)}
				case 1:
					in[i] = stoch.Signal{P: 0, D: 2e5}
				case 2:
					in[i] = stoch.Signal{P: 1, D: 3e5 * float64(i+1)}
				case 3:
					in[i] = stoch.Signal{P: float64(i % 2), D: 1e5}
				default:
					in[i] = stoch.Signal{P: rng.Float64(), D: 1e6 * rng.Float64()}
				}
			}
			vectors[v] = in
		}
		// A random vector with both endpoints among its pins.
		if len(g.Inputs) >= 3 {
			vectors[4][0].P, vectors[4][len(g.Inputs)-1].P = 1, 0
		}
		for v, in := range vectors {
			load := prm.OutputLoad(v % 3)
			batch, err := AnalyzeConfigs(g, in, load, prm)
			if err != nil {
				t.Fatalf("%s vector %d: %v", g.Name, v, err)
			}
			cfgs := g.AllConfigs()
			if len(batch) != len(cfgs) {
				t.Fatalf("%s: %d batch results for %d configs", g.Name, len(batch), len(cfgs))
			}
			for i, cp := range batch {
				if cp.Config.ConfigKey() != cfgs[i].ConfigKey() {
					t.Fatalf("%s: batch result %d is %s, AllConfigs has %s",
						g.Name, i, cp.Config.ConfigKey(), cfgs[i].ConfigKey())
				}
				ref, err := AnalyzeGate(cfgs[i], in, load, prm)
				if err != nil {
					t.Fatal(err)
				}
				if cp.Power != ref.Power || cp.InternalPower != ref.InternalPower ||
					cp.OutputPower != ref.OutputPower || cp.Out != ref.Out {
					t.Errorf("%s vector %d config %s: batch (%g, %g, %g, %v) != reference (%g, %g, %g, %v)",
						g.Name, v, cfgs[i].ConfigKey(),
						cp.Power, cp.InternalPower, cp.OutputPower, cp.Out,
						ref.Power, ref.InternalPower, ref.OutputPower, ref.Out)
				}
			}
		}
	}
}

// TestConfigAnalyzerZeroAllocs guards the steady state: once the
// templates and the analyzer's scratch are warm, evaluating aoi222's
// whole orbit allocates nothing, so the minterm table cannot regress into
// a per-call allocation.
func TestConfigAnalyzerZeroAllocs(t *testing.T) {
	prm := DefaultParams()
	g := library.Default().MustCell("aoi222").Proto
	cfgs := g.AllConfigs()
	in := make([]stoch.Signal, len(g.Inputs))
	for i := range in {
		in[i] = stoch.Signal{P: 0.1 + 0.13*float64(i), D: 1e5}
	}
	var a ConfigAnalyzer
	if _, err := a.Analyze(cfgs, in, prm.OutputLoad(2), prm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.Analyze(cfgs, in, prm.OutputLoad(2), prm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ConfigAnalyzer.Analyze over %d configurations: %v allocations per call, want 0", len(cfgs), allocs)
	}
}

// TestAnalyzeConfigsMonotonicProperty asserts the Section 4.2 property the
// parallel optimizer rests on, as exposed by the batch API: every
// configuration of a cell propagates identical output statistics.
func TestAnalyzeConfigsMonotonicProperty(t *testing.T) {
	prm := DefaultParams()
	for _, cell := range library.Default().Cells() {
		g := cell.Proto
		in := make([]stoch.Signal, len(g.Inputs))
		for i := range in {
			in[i] = stoch.Signal{P: 0.4, D: 2e5}
		}
		batch, err := AnalyzeConfigs(g, in, prm.OutputLoad(1), prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range batch[1:] {
			if cp.Out != batch[0].Out {
				t.Errorf("%s: config %s propagates %v, config %s propagates %v",
					g.Name, cp.Config.ConfigKey(), cp.Out, batch[0].Config.ConfigKey(), batch[0].Out)
			}
		}
	}
}

// TestAnalyzeConfigsErrors covers the validation paths of the batch API.
func TestAnalyzeConfigsErrors(t *testing.T) {
	g := library.Default().MustCell("nand2").Proto
	in := []stoch.Signal{{P: 0.5, D: 1}, {P: 0.5, D: 1}}
	if _, err := AnalyzeConfigs(g, in, 1e-15, Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := AnalyzeConfigs(g, in[:1], 1e-15, DefaultParams()); err == nil {
		t.Error("wrong input count accepted")
	}
	for _, load := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := AnalyzeConfigs(g, in, load, DefaultParams()); err == nil {
			t.Errorf("load %v accepted", load)
		}
	}
	bad := []stoch.Signal{{P: 2, D: 1}, {P: 0.5, D: 1}}
	if _, err := AnalyzeConfigs(g, bad, 1e-15, DefaultParams()); err == nil {
		t.Error("invalid signal accepted")
	}
	var a ConfigAnalyzer
	if _, err := a.Analyze(g.AllConfigs(), in[:1], 1e-15, DefaultParams()); err == nil {
		t.Error("Analyze accepted wrong input count")
	}
	if _, err := a.Analyze(nil, nil, 1e-15, DefaultParams()); err != nil {
		t.Errorf("empty candidate list should evaluate to empty, got %v", err)
	}
}

// TestIncrementalParallelConstructionEquivalent pins the wavefront
// constructor to the reference: for every embedded benchmark, every
// Table 3 circuit and several worker counts, the constructed engine state
// must equal AnalyzeCircuit's exactly (every total, every per-gate power,
// every net statistic). Both fold the per-gate results in the same
// topological order, so no tolerance is needed.
func TestIncrementalParallelConstructionEquivalent(t *testing.T) {
	lib := library.Default()
	prm := DefaultParams()
	for _, name := range append(mcnc.EmbeddedNames(), mcnc.Names()...) {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		pi := map[string]stoch.Signal{}
		for i, in := range c.Inputs {
			pi[in] = stoch.Signal{P: 0.2 + 0.07*float64(i%10), D: 1e5 * float64(1+i%5)}
		}
		want, err := AnalyzeCircuit(c, pi, prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			inc, err := NewIncrementalParallelFunc(c, pi, prm, workers, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if inc.Power() != want.Power || inc.InternalPower() != want.InternalPower ||
				inc.OutputPower() != want.OutputPower {
				t.Fatalf("%s workers=%d: totals (%g, %g, %g) != reference (%g, %g, %g)",
					name, workers, inc.Power(), inc.InternalPower(), inc.OutputPower(),
					want.Power, want.InternalPower, want.OutputPower)
			}
			got := inc.Analysis()
			if len(got.PerGate) != len(want.PerGate) || len(got.NetStats) != len(want.NetStats) {
				t.Fatalf("%s workers=%d: %d gates, %d nets; reference has %d, %d", name, workers,
					len(got.PerGate), len(got.NetStats), len(want.PerGate), len(want.NetStats))
			}
			for g, p := range want.PerGate {
				if q, ok := got.PerGate[g]; !ok || q != p {
					t.Fatalf("%s workers=%d: gate %s power %g != reference %g", name, workers, g, q, p)
				}
			}
			for net, s := range want.NetStats {
				if q, ok := got.NetStats[net]; !ok || q != s {
					t.Fatalf("%s workers=%d: net %s stats %v != reference %v", name, workers, net, q, s)
				}
			}
		}
	}
}

// TestIncrementalParallelHook checks the wavefront hook contract: it runs
// exactly once per gate, sees settled pin statistics, and its errors fail
// construction deterministically (lowest position).
func TestIncrementalParallelHook(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		seen := map[int]int{}
		_, err := NewIncrementalParallelFunc(c, pi, DefaultParams(), workers,
			func(inc *Incremental, i int) error {
				in, err := inc.InputsAt(i, nil)
				if err != nil {
					return err // a pin's statistics were not settled
				}
				if len(in) != len(inc.Order()[i].Pins) {
					return fmt.Errorf("position %d: %d signals for %d pins", i, len(in), len(inc.Order()[i].Pins))
				}
				for _, s := range in {
					if err := s.Validate(); err != nil {
						return fmt.Errorf("position %d: unsettled pin statistics: %w", i, err)
					}
				}
				mu.Lock()
				seen[i]++
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != len(c.Gates) {
			t.Fatalf("workers=%d: hook ran for %d of %d gates", workers, len(seen), len(c.Gates))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: hook ran %d times for position %d", workers, n, i)
			}
		}
	}
	// Hook errors fail construction with the lowest-position error.
	for _, workers := range []int{1, 4} {
		wantErr := fmt.Errorf("boom")
		_, err := NewIncrementalParallelFunc(c, pi, DefaultParams(), workers,
			func(inc *Incremental, i int) error {
				if i >= 3 {
					return fmt.Errorf("boom at %d", i)
				}
				if i == 2 {
					return wantErr
				}
				return nil
			})
		if err == nil || err.Error() != "boom" {
			t.Fatalf("workers=%d: construction error = %v, want boom (position 2)", workers, err)
		}
	}
}

// TestSetConfigEvaluatedMatchesSetConfig pins the commit fast path: the
// engine state after SetConfigEvaluated with an AnalyzeConfigs result
// must be bit-identical to SetConfig re-evaluating the model.
func TestSetConfigEvaluatedMatchesSetConfig(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for i, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.35 + 0.03*float64(i), D: 1e5 * float64(1+i%4)}
	}
	prm := DefaultParams()
	a, err := NewIncremental(c.Clone(), pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIncremental(c.Clone(), pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range a.Order() {
		in, err := a.InputsAt(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := AnalyzeConfigs(g.Cell, in, a.LoadAt(i), prm)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) < 2 {
			continue
		}
		// Pick a non-current candidate.
		cp := cands[0]
		if cp.Config.ConfigKey() == g.Cell.ConfigKey() {
			cp = cands[1]
		}
		if err := a.SetConfigEvaluated(i, cp); err != nil {
			t.Fatal(err)
		}
		if err := b.SetConfig(g.Name, cp.Config); err != nil {
			t.Fatal(err)
		}
		if a.Power() != b.Power() || a.InternalPower() != b.InternalPower() || a.OutputPower() != b.OutputPower() {
			t.Fatalf("position %d: evaluated commit (%g, %g, %g) != re-evaluating commit (%g, %g, %g)",
				i, a.Power(), a.InternalPower(), a.OutputPower(), b.Power(), b.InternalPower(), b.OutputPower())
		}
	}
	checkAgainstFull(t, a, pi, prm, "after evaluated commits")
	// Guards: position range and nil config.
	if err := a.SetConfigEvaluated(-1, ConfigPower{}); err == nil {
		t.Error("negative position accepted")
	}
	if err := a.SetConfigEvaluated(0, ConfigPower{}); err == nil {
		t.Error("nil config accepted")
	}
}

// TestSetConfigEvaluatedFallbackRepropagates covers the defensive branch:
// an evaluation whose claimed output statistics (and power) are stale or
// wrong must trigger cone repropagation, leaving the engine in exactly
// the state a from-scratch analysis computes — not the bogus claim.
func TestSetConfigEvaluatedFallbackRepropagates(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	prm := DefaultParams()
	inc, err := NewIncremental(c, pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	var target int
	for i, g := range inc.Order() {
		if len(g.Cell.AllConfigs()) >= 2 {
			target = i
			break
		}
	}
	g := inc.Order()[target]
	in, err := inc.InputsAt(target, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := AnalyzeConfigs(g.Cell, in, inc.LoadAt(target), prm)
	if err != nil {
		t.Fatal(err)
	}
	cp := cands[len(cands)-1]
	// Corrupt the claim: wrong power split and perturbed output stats.
	cp.Power *= 3
	cp.InternalPower *= 3
	cp.Out.D *= 1.5
	base := inc.Recomputed()
	if err := inc.SetConfigEvaluated(target, cp); err != nil {
		t.Fatal(err)
	}
	if inc.Recomputed() == base {
		t.Fatal("perturbed evaluation did not trigger repropagation")
	}
	// The committed configuration is a genuine reordering, so after the
	// fallback the engine must match the from-scratch analysis — the
	// corrupted power and statistics must have been recomputed away.
	checkAgainstFull(t, inc, pi, prm, "after fallback")
}

// TestIncrementalIDFastPaths exercises the dense-ID shims against the
// string API they back.
func TestIncrementalIDFastPaths(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	inc, err := NewIncremental(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	snap := inc.Analysis()
	for net, want := range snap.NetStats {
		id, ok := inc.NetID(net)
		if !ok {
			t.Fatalf("net %q has no ID", net)
		}
		got, ok := inc.NetSignalID(id)
		if !ok || got != want {
			t.Fatalf("net %q (id %d): NetSignalID = (%v, %v), want %v", net, id, got, ok, want)
		}
		gotStr, ok := inc.NetSignal(net)
		if !ok || gotStr != want {
			t.Fatalf("net %q: NetSignal shim = (%v, %v), want %v", net, gotStr, ok, want)
		}
	}
	if _, ok := inc.NetID("no-such-net"); ok {
		t.Error("NetID resolved a nonexistent net")
	}
	if _, ok := inc.NetSignalID(-1); ok {
		t.Error("NetSignalID accepted a negative ID")
	}
	if _, ok := inc.NetSignalID(1 << 30); ok {
		t.Error("NetSignalID accepted an out-of-range ID")
	}

	order := inc.Order()
	for i, g := range order {
		if load, ok := inc.Load(g.Name); !ok || load != inc.LoadAt(i) {
			t.Fatalf("instance %s: Load shim (%v, %v) != LoadAt %v", g.Name, load, ok, inc.LoadAt(i))
		}
		in, err := inc.InputsAt(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(in) != len(g.Pins) {
			t.Fatalf("instance %s: InputsAt returned %d signals for %d pins", g.Name, len(in), len(g.Pins))
		}
		for k, p := range g.Pins {
			if want, _ := inc.NetSignal(p); in[k] != want {
				t.Fatalf("instance %s pin %d: InputsAt %v != NetSignal %v", g.Name, k, in[k], want)
			}
		}
	}
}

// TestPick pins the selection rule: strict comparison in both
// directions, so ties go to the earliest candidate.
func TestPick(t *testing.T) {
	cands := []ConfigPower{{Power: 2}, {Power: 1}, {Power: 3}, {Power: 1}, {Power: 3}}
	if k, err := Pick(cands, false); err != nil || k != 1 {
		t.Errorf("Pick(min) = %d, %v; want 1", k, err)
	}
	if k, err := Pick(cands, true); err != nil || k != 2 {
		t.Errorf("Pick(max) = %d, %v; want 2", k, err)
	}
	if _, err := Pick(nil, false); err == nil {
		t.Error("Pick accepted an empty candidate list")
	}
}
