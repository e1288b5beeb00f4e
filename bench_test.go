// Benchmarks that regenerate every table and figure of the paper, plus
// ablations of the model and optimizer (input-only and output-only
// reordering, delay rules, capacitance weights) and the engine
// throughput measurements. Each benchmark reports the
// headline quantity of its experiment via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment harness
// (cmd/paper prints the full human-readable tables).
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/expt"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/stoch"
	"repro/internal/sweep"
)

// table3Subset is the benchmark subset the testing.B harness sweeps; the
// cmd/paper tool runs all 39 rows. Chosen to span small to large and to
// include the embedded classics' scale.
var table3Subset = []string{"cm138a", "cht", "cu", "alu2", "f51m", "term1"}

// BenchmarkFig1Configurations regenerates Figure 1(a): enumerating the
// four configurations of the motivation gate.
func BenchmarkFig1Configurations(b *testing.B) {
	g := expt.MotivationGate()
	for i := 0; i < b.N; i++ {
		if got := len(g.AllConfigs()); got != 4 {
			b.Fatalf("got %d configurations", got)
		}
	}
	b.ReportMetric(4, "configs")
}

// BenchmarkTable1MotivationGate regenerates Table 1(b): both activity
// cases of the motivation gate; reports the case (1) best-vs-worst saving.
func BenchmarkTable1MotivationGate(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Table1(core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		red = res.Red[0]
	}
	b.ReportMetric(100*red, "%reduction-case1")
}

// BenchmarkTable2LibraryEnumeration regenerates Table 2: building the
// full library with configuration counts and instance partitions.
func BenchmarkTable2LibraryEnumeration(b *testing.B) {
	var configs int
	for i := 0; i < b.N; i++ {
		lib := library.Default()
		configs = 0
		for _, c := range lib.Cells() {
			configs += c.Configs
		}
	}
	b.ReportMetric(float64(configs), "total-configs")
}

// BenchmarkFig5PivotExploration regenerates Figure 5: the pivot search on
// the motivation gate, trace included.
func BenchmarkFig5PivotExploration(b *testing.B) {
	g := expt.MotivationGate()
	var steps int
	for i := 0; i < b.N; i++ {
		var trace []gate.ExploreStep
		configs := g.FindAllConfigs(&trace)
		if len(configs) != 4 {
			b.Fatalf("got %d configurations", len(configs))
		}
		steps = len(trace)
	}
	b.ReportMetric(float64(steps), "pivots")
}

// benchTable3 sweeps the subset under one scenario and reports averages.
func benchTable3(b *testing.B, sc expt.Scenario) {
	opt := expt.DefaultOptions()
	opt.HorizonA = 2e-4
	opt.CyclesB = 1000
	var avg expt.Averages
	for i := 0; i < b.N; i++ {
		var err error
		_, avg, err = expt.Run(sc, table3Subset, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*avg.ModelRed, "%model-reduction")
	b.ReportMetric(100*avg.SimRed, "%sim-reduction")
	b.ReportMetric(100*avg.DelayInc, "%delay-increase")
}

// BenchmarkTable3ScenarioA regenerates Table 3 (scenario A) on the subset.
func BenchmarkTable3ScenarioA(b *testing.B) { benchTable3(b, expt.ScenarioA) }

// BenchmarkTable3ScenarioB regenerates Table 3 (scenario B) on the subset.
func BenchmarkTable3ScenarioB(b *testing.B) { benchTable3(b, expt.ScenarioB) }

// BenchmarkRippleCarryActivity regenerates the Section 1.1 observation:
// transition density grows along the carry chain while probabilities stay
// flat. Reports the density amplification at the carry output.
func BenchmarkRippleCarryActivity(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca8", lib)
	if err != nil {
		b.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 1e5)
	var ratio float64
	for i := 0; i < b.N; i++ {
		a, err := repro.EstimatePower(c, stats)
		if err != nil {
			b.Fatal(err)
		}
		ratio = a.NetStats["cout"].D / 1e5
	}
	b.ReportMetric(ratio, "cout-density-amplification")
}

// BenchmarkAblationInputOnly compares the paper's full reordering against
// the input-reordering-only subset technique (Sec. 2) on a real circuit.
func BenchmarkAblationInputOnly(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("alu2", lib)
	if err != nil {
		b.Fatal(err)
	}
	opt := expt.DefaultOptions()
	pi := expt.InputStats(c, expt.ScenarioA, opt)
	var fullRed, inRed float64
	for i := 0; i < b.N; i++ {
		ro := reorder.DefaultOptions()
		full, err := reorder.Optimize(c, pi, ro)
		if err != nil {
			b.Fatal(err)
		}
		ro.Mode = reorder.InputOnly
		inOnly, err := reorder.Optimize(c, pi, ro)
		if err != nil {
			b.Fatal(err)
		}
		fullRed = full.Reduction()
		inRed = inOnly.Reduction()
	}
	b.ReportMetric(100*fullRed, "%full-reduction")
	b.ReportMetric(100*inRed, "%input-only-reduction")
}

// BenchmarkAblationOutputOnlyModel shows why the paper's internal-node
// model matters: an output-only power view cannot separate the
// configurations of a gate (their output statistics are identical), so
// its best-vs-worst spread collapses to the junction-capacitance residue.
func BenchmarkAblationOutputOnlyModel(b *testing.B) {
	g := expt.MotivationGate()
	in := []stoch.Signal{{P: 0.5, D: 1e4}, {P: 0.5, D: 1e5}, {P: 0.5, D: 1e6}}
	prm := core.DefaultParams()
	var fullSpread, outSpread float64
	for i := 0; i < b.N; i++ {
		var minFull, maxFull, minOut, maxOut float64
		for ci, cfg := range g.AllConfigs() {
			a, err := core.AnalyzeGate(cfg, in, prm.OutputLoad(1), prm)
			if err != nil {
				b.Fatal(err)
			}
			var outP float64
			for _, n := range a.Nodes {
				if n.IsOut {
					outP = n.Power
				}
			}
			if ci == 0 {
				minFull, maxFull = a.Power, a.Power
				minOut, maxOut = outP, outP
			}
			minFull = min(minFull, a.Power)
			maxFull = max(maxFull, a.Power)
			minOut = min(minOut, outP)
			maxOut = max(maxOut, outP)
		}
		fullSpread = 1 - minFull/maxFull
		outSpread = 1 - minOut/maxOut
	}
	b.ReportMetric(100*fullSpread, "%spread-with-internal-nodes")
	b.ReportMetric(100*outSpread, "%spread-output-only")
}

// BenchmarkAblationFixpoint verifies the Sec. 4.2 monotonicity claim at
// scale: a second optimization pass changes zero gates.
func BenchmarkAblationFixpoint(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("f51m", lib)
	if err != nil {
		b.Fatal(err)
	}
	opt := expt.DefaultOptions()
	pi := expt.InputStats(c, expt.ScenarioA, opt)
	var second int
	for i := 0; i < b.N; i++ {
		first, err := reorder.Optimize(c, pi, reorder.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		again, err := reorder.Optimize(first.Circuit, pi, reorder.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		second = again.GatesChanged
	}
	if second != 0 {
		b.Fatalf("second pass changed %d gates; monotonicity violated", second)
	}
	b.ReportMetric(float64(second), "second-pass-changes")
}

// BenchmarkPivotVsCombinatorial compares the paper's pivot search
// (Fig. 4) against direct combinatorial enumeration on the widest library
// cell.
func BenchmarkPivotVsCombinatorial(b *testing.B) {
	g := gate.MustNew("aoi222", []string{"a1", "a2", "b1", "b2", "c1", "c2"},
		sp.MustParse("p(s(a1,a2),s(b1,b2),s(c1,c2))"))
	b.Run("pivot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := len(g.FindAllConfigs(nil)); got != 48 {
				b.Fatalf("got %d", got)
			}
		}
	})
	b.Run("combinatorial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := len(g.AllConfigs()); got != 48 {
				b.Fatalf("got %d", got)
			}
		}
	})
}

// BenchmarkSimDelayModes compares unit-delay against Elmore-delay and
// zero-delay simulation of the same circuit and stimulus: glitch counts
// differ, the best-vs-worst ordering must not.
func BenchmarkSimDelayModes(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca4", lib)
	if err != nil {
		b.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 2e5)
	best, worst, err := repro.BestAndWorst(c, stats, repro.DefaultOptimizeOptions())
	if err != nil {
		b.Fatal(err)
	}
	const horizon = 2e-4
	modes := []struct {
		name string
		mode sim.DelayMode
	}{{"unit", sim.UnitDelay}, {"elmore", sim.ElmoreDelay}, {"zero", sim.ZeroDelay}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(13))
				prm := sim.DefaultParams()
				prm.Mode = m.mode
				var err error
				red, err = sim.ReductionVectors(best.Circuit, worst.Circuit, sim.ExponentialDrawer(c.Inputs, stats, horizon, rng), 1, 1, horizon, prm)
				if err != nil {
					b.Fatal(err)
				}
			}
			if red <= 0 {
				b.Fatalf("mode %s inverted the best-vs-worst ordering (%.3f)", m.name, red)
			}
			b.ReportMetric(100*red, "%sim-reduction")
		})
	}
}

// BenchmarkDelayRuleConflict quantifies the Section 5 tension: optimizing
// the same circuit for delay versus for power and reporting the power
// cost of the delay rule.
func BenchmarkDelayRuleConflict(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca8", lib)
	if err != nil {
		b.Fatal(err)
	}
	opt := expt.DefaultOptions()
	pi := expt.InputStats(c, expt.ScenarioA, opt)
	var powerCost, delayCost float64
	for i := 0; i < b.N; i++ {
		ro := reorder.DefaultOptions()
		lowPower, err := reorder.Optimize(c, pi, ro)
		if err != nil {
			b.Fatal(err)
		}
		ro.Mode = reorder.DelayRule
		fast, err := reorder.Optimize(c, pi, ro)
		if err != nil {
			b.Fatal(err)
		}
		// Power cost of the delay rule relative to the low-power result.
		powerCost = fast.PowerAfter/lowPower.PowerAfter - 1
		dFast, err := delay.CircuitDelay(fast.Circuit, delay.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		dLow, err := delay.CircuitDelay(lowPower.Circuit, delay.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		delayCost = dLow.Delay/dFast.Delay - 1
	}
	b.ReportMetric(100*powerCost, "%power-cost-of-delay-rule")
	b.ReportMetric(100*delayCost, "%delay-cost-of-power-rule")
}

// BenchmarkAblationDelayNeutral measures the paper's future-work mode:
// how much of the unconstrained power reduction survives when no gate may
// become slower than its original configuration.
func BenchmarkAblationDelayNeutral(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("term1", lib)
	if err != nil {
		b.Fatal(err)
	}
	opt := expt.DefaultOptions()
	pi := expt.InputStats(c, expt.ScenarioA, opt)
	var fullRed, neutralRed, delayChange float64
	for i := 0; i < b.N; i++ {
		full, err := reorder.Optimize(c, pi, reorder.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ro := reorder.DefaultOptions()
		ro.Mode = reorder.DelayNeutral
		neutral, err := reorder.Optimize(c, pi, ro)
		if err != nil {
			b.Fatal(err)
		}
		fullRed = full.Reduction()
		neutralRed = neutral.Reduction()
		d0, err := delay.CircuitDelay(c, delay.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		d1, err := delay.CircuitDelay(neutral.Circuit, delay.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		delayChange = d1.Delay/d0.Delay - 1
	}
	if delayChange > 1e-9 {
		b.Fatalf("delay-neutral mode slowed the circuit by %.3g", delayChange)
	}
	b.ReportMetric(100*fullRed, "%full-reduction")
	b.ReportMetric(100*neutralRed, "%delay-neutral-reduction")
	b.ReportMetric(100*delayChange, "%delay-change")
}

// BenchmarkUselessTransitions quantifies the introduction's claim that
// useless transitions account for a large fraction of dynamic power:
// fraction of gate-output transitions a zero-delay circuit would not
// make, measured on the ripple-carry adder.
func BenchmarkUselessTransitions(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("rca8", lib)
	if err != nil {
		b.Fatal(err)
	}
	stats := repro.UniformInputs(c, 0.5, 0.5) // transitions per cycle, latched
	const period = 100e-9
	const cycles = 2000
	const horizon = cycles * period
	var fraction float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(8))
		waves, err := sim.GenerateClockedWaveforms(c.Inputs, stats, cycles, period, rng)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sim.Glitches(c, waves, horizon, sim.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		fraction = rep.Fraction
	}
	b.ReportMetric(100*fraction, "%useless-transitions")
}

// BenchmarkCapacitanceSensitivity sweeps the junction-capacitance weight
// and reports the model reduction at each point: the paper's absolute
// percentages hinge on how much of the switched capacitance sits on
// internal nodes, and this bench quantifies that dependence (one
// candidate source of the gap between the paper's Table 3 averages and
// this reproduction's).
func BenchmarkCapacitanceSensitivity(b *testing.B) {
	lib := repro.DefaultLibrary()
	c, err := repro.LoadBenchmark("alu2", lib)
	if err != nil {
		b.Fatal(err)
	}
	opt := expt.DefaultOptions()
	pi := expt.InputStats(c, expt.ScenarioA, opt)
	for _, scale := range []float64{0.25, 1, 4} {
		name := fmt.Sprintf("Cj=%gx", scale)
		b.Run(name, func(b *testing.B) {
			var red float64
			for i := 0; i < b.N; i++ {
				ro := reorder.DefaultOptions()
				ro.Params.Cj *= scale
				best, worst, err := reorder.BestAndWorst(c, pi, ro)
				if err != nil {
					b.Fatal(err)
				}
				red = (worst.PowerAfter - best.PowerAfter) / worst.PowerAfter
			}
			b.ReportMetric(100*red, "%best-vs-worst")
		})
	}
}

// largestEmbedded returns the embedded benchmark with the most gates —
// the hardest case the incremental engine must beat full re-analysis on.
func largestEmbedded(b *testing.B, lib *library.Library) *circuit.Circuit {
	b.Helper()
	var largest *circuit.Circuit
	for _, name := range mcnc.EmbeddedNames() {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			b.Fatal(err)
		}
		if largest == nil || len(c.Gates) > len(largest.Gates) {
			largest = c
		}
	}
	return largest
}

// BenchmarkIncrementalVsFull measures the tentpole claim: after
// reordering one gate, updating the circuit's power through the
// incremental engine (fan-out-cone repropagation with frontier cutoff)
// versus re-running the full AnalyzeCircuit. Run on the largest embedded
// benchmark; the incremental path re-evaluates exactly one gate per move
// because reordering preserves output statistics.
func BenchmarkIncrementalVsFull(b *testing.B) {
	lib := repro.DefaultLibrary()
	c := largestEmbedded(b, lib)
	prm := core.DefaultParams()
	pi := repro.UniformInputs(c, 0.5, 1e5)
	// Pick a mid-circuit gate with at least two configurations to flip
	// between, so every iteration performs a real update.
	var target *circuit.Instance
	var cfgs []*gate.Gate
	order, err := c.TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range order[len(order)/2:] {
		if all := g.Cell.AllConfigs(); len(all) >= 2 {
			target, cfgs = g, all
			break
		}
	}
	if target == nil {
		b.Fatal("no reorderable gate in largest embedded benchmark")
	}
	b.Logf("benchmark %s: %d gates, flipping %s (%s)", c.Name, len(c.Gates), target.Name, target.Cell.Name)

	b.Run("full-reanalysis", func(b *testing.B) {
		var power float64
		for i := 0; i < b.N; i++ {
			target.Cell = cfgs[i%2]
			a, err := core.AnalyzeCircuit(c, pi, prm)
			if err != nil {
				b.Fatal(err)
			}
			power = a.Power
		}
		b.ReportMetric(power*1e6, "uW")
	})
	b.Run("incremental", func(b *testing.B) {
		inc, err := core.NewIncremental(c, pi, prm)
		if err != nil {
			b.Fatal(err)
		}
		base := inc.Recomputed()
		b.ResetTimer()
		var power float64
		for i := 0; i < b.N; i++ {
			if err := inc.SetConfig(target.Name, cfgs[i%2]); err != nil {
				b.Fatal(err)
			}
			power = inc.Power()
		}
		b.StopTimer()
		b.ReportMetric(power*1e6, "uW")
		b.ReportMetric(float64(inc.Recomputed()-base)/float64(b.N), "gate-evals/op")
	})
}

// BenchmarkRunEnergyAllocs pins the sweep engine's measurement path: on
// the largest embedded benchmark, in all three delay modes, a warmed
// RunEnergy call must not allocate (the pooled scratch reuse) — asserted
// before timing one 64-lane pack per iteration.
func BenchmarkRunEnergyAllocs(b *testing.B) {
	lib := repro.DefaultLibrary()
	c := largestEmbedded(b, lib)
	stats := repro.UniformInputs(c, 0.5, 2e5)
	const horizon = 2e-4
	for _, mode := range []struct {
		name string
		mode sim.DelayMode
	}{{"zero", sim.ZeroDelay}, {"unit", sim.UnitDelay}, {"elmore", sim.ElmoreDelay}} {
		prm := sim.DefaultParams()
		prm.Mode = mode.mode
		rng := rand.New(rand.NewSource(65))
		laneWaves, err := sim.GenerateLaneWaveforms(c.Inputs, stats, horizon, stoch.MaxLanes, rng)
		if err != nil {
			b.Fatal(err)
		}
		var runEnergy func() (float64, error)
		if mode.mode == sim.ZeroDelay {
			prog, err := sim.Compile(c, prm)
			if err != nil {
				b.Fatal(err)
			}
			stim, err := stoch.PackWaveforms(c.Inputs, laneWaves, horizon)
			if err != nil {
				b.Fatal(err)
			}
			runEnergy = func() (float64, error) { return prog.RunEnergy(stim) }
		} else {
			prog, err := sim.CompileTimed(c, prm)
			if err != nil {
				b.Fatal(err)
			}
			stim, err := prog.PackTimed(laneWaves, horizon)
			if err != nil {
				b.Fatal(err)
			}
			runEnergy = func() (float64, error) { return prog.RunEnergy(stim) }
		}
		b.Run(mode.name, func(b *testing.B) {
			if _, err := runEnergy(); err != nil { // warm the scratch pool
				b.Fatal(err)
			}
			if avg := testing.AllocsPerRun(5, func() {
				if _, err := runEnergy(); err != nil {
					b.Fatal(err)
				}
			}); avg > 2 {
				b.Fatalf("%s RunEnergy allocates %.1f objects/op; the pooled scratch must make this ~0", mode.name, avg)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runEnergy(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*stoch.MaxLanes/b.Elapsed().Seconds(), "vectors/sec")
		})
	}
}

// BenchmarkLaneWidth measures Monte Carlo throughput of the compiled
// engines as the register file widens from one plane (64 lanes) to four
// and eight planes (256 and 512 lanes), on the largest embedded benchmark
// in all three delay modes. Each iteration evaluates one full packed
// stimulus, so the vectors/sec metric scales with both the per-word cost
// and the pack width. The zero-delay engine evaluates dense steps four
// planes per kernel pass, which amortizes op decoding across words, so
// its wide rows should beat its 64-lane row. The timed engine visits each
// gate one word at a time — lanes toggle at independent instants, so a
// wide block's words are rarely dirty together — and its unit and Elmore
// rows stay about flat across widths.
func BenchmarkLaneWidth(b *testing.B) {
	lib := repro.DefaultLibrary()
	c := largestEmbedded(b, lib)
	stats := repro.UniformInputs(c, 0.5, 2e5)
	const horizon = 2e-4
	b.Logf("benchmark %s: %d gates", c.Name, len(c.Gates))

	for _, mode := range []struct {
		name string
		mode sim.DelayMode
	}{{"zero", sim.ZeroDelay}, {"unit", sim.UnitDelay}, {"elmore", sim.ElmoreDelay}} {
		prm := sim.DefaultParams()
		prm.Mode = mode.mode
		for _, lanes := range []int{64, 256, 512} {
			// Same seed per width so every row simulates the same leading
			// 64 vectors plus fresh ones; stimulus is drawn outside the
			// timed region.
			rng := rand.New(rand.NewSource(64))
			laneWaves := make([]map[string]*stoch.Waveform, lanes)
			for l := range laneWaves {
				w, err := sim.GenerateWaveforms(c.Inputs, stats, horizon, rng)
				if err != nil {
					b.Fatal(err)
				}
				laneWaves[l] = w
			}
			var run func() error
			if mode.mode == sim.ZeroDelay {
				prog, err := sim.Compile(c, prm)
				if err != nil {
					b.Fatal(err)
				}
				stim, err := stoch.PackWaveforms(c.Inputs, laneWaves, horizon)
				if err != nil {
					b.Fatal(err)
				}
				run = func() error { _, err := prog.Run(stim); return err }
			} else {
				prog, err := sim.CompileTimed(c, prm)
				if err != nil {
					b.Fatal(err)
				}
				stim, err := prog.PackTimed(laneWaves, horizon)
				if err != nil {
					b.Fatal(err)
				}
				run = func() error { _, err := prog.Run(stim); return err }
			}
			b.Run(fmt.Sprintf("%s/lanes=%d", mode.name, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)*float64(lanes)/b.Elapsed().Seconds(), "vectors/sec")
			})
		}
	}
}

// BenchmarkParallelOptimizer measures the optimizer's wavefront
// candidate search on the largest embedded benchmark, serial versus N
// workers. Each iteration is a whole Optimize call (clone, incremental
// construction with the search riding it, serial commit); the
// parallel phase dominates because every gate evaluates its full
// configuration orbit while the serial parts evaluate each gate once.
// The configuration-orbit and template caches are warmed by a discarded
// run so every variant measures the steady-state search. Reports are
// bit-identical across worker counts (asserted here and in
// reorder.TestOptimizeWorkerEquivalence); target is ≥4x wall-clock at 8
// workers on a multi-core host.
func BenchmarkParallelOptimizer(b *testing.B) {
	lib := repro.DefaultLibrary()
	c := largestEmbedded(b, lib)
	pi := repro.UniformInputs(c, 0.5, 1e5)
	opt := reorder.DefaultOptions()
	opt.Workers = 1
	warm, err := reorder.Optimize(c, pi, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("benchmark %s: %d gates, %d reconfigured", c.Name, len(c.Gates), warm.GatesChanged)
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			opt := reorder.DefaultOptions()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				rep, err := reorder.Optimize(c, pi, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.PowerAfter != warm.PowerAfter || rep.GatesChanged != warm.GatesChanged {
					b.Fatalf("workers=%d diverged: power %g (want %g), changed %d (want %d)",
						workers, rep.PowerAfter, warm.PowerAfter, rep.GatesChanged, warm.GatesChanged)
				}
			}
			b.ReportMetric(float64(len(c.Gates))*float64(b.N)/b.Elapsed().Seconds(), "gates/sec")
		})
	}
}

// BenchmarkSweepWorkers measures the sweep engine's scaling: the same
// model-only job set under 1 worker and under GOMAXPROCS workers.
func BenchmarkSweepWorkers(b *testing.B) {
	benches := []string{"cm138a", "cht", "cu", "c17", "rca4", "rca8"}
	workersList := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workersList = append(workersList, n)
	}
	for _, workers := range workersList {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var failed int
			for i := 0; i < b.N; i++ {
				opt := sweep.DefaultOptions()
				opt.Benchmarks = benches
				opt.Seeds = []int64{1}
				opt.Simulate = false
				opt.Workers = workers
				s, err := sweep.Run(context.Background(), opt)
				if err != nil {
					b.Fatal(err)
				}
				failed = s.Failed
			}
			if failed != 0 {
				b.Fatalf("%d jobs failed", failed)
			}
		})
	}
}
