// Package expt sets up and runs the paper's experiments: the two input
// scenarios of Figure 6, the Table 1 motivation study, the Table 2 library
// summary, and the Table 3 benchmark sweep with its three measurement
// columns (model reduction M, switch-level-simulated reduction S, delay
// increase D).
package expt

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/stoch"
)

// Scenario selects the input-statistics regime of Figure 6.
type Scenario int

// The two scenarios of the paper's Section 5.1.
const (
	// ScenarioA embeds the circuit in a larger system: per-input
	// equilibrium probabilities uniform in [0,1] and transition densities
	// uniform in [0, 1e6] transitions/second.
	ScenarioA Scenario = iota
	// ScenarioB treats the circuit as the whole system: latched inputs at
	// a fixed clock with P = 0.5 and D = 0.5 transitions per cycle.
	ScenarioB
)

func (s Scenario) String() string {
	if s == ScenarioA {
		return "A"
	}
	return "B"
}

// Options collects the experiment constants.
type Options struct {
	Params   core.Params  // power model constants
	Delay    delay.Params // timing constants
	Sim      sim.Params   // simulator configuration
	HorizonA float64      // simulated seconds in scenario A
	CyclesB  int          // simulated cycles in scenario B
	PeriodB  float64      // clock period in scenario B, seconds
	MaxDensA float64      // upper bound of the scenario-A density range
	Seed     int64        // base seed; per-benchmark seeds derive from it
	Workers  int          // parallel benchmark rows in Run (≤ 1: sequential)
	// SimVectors is the total number of Monte Carlo stimulus realizations
	// an S-column measurement evaluates: zero-delay runs go through the
	// compiled levelized engine and unit-/Elmore-delay runs through the
	// timed compiled engine, streaming the vectors in register blocks of
	// SimLanes lanes per pass. 0 means SimLanes (one pack).
	SimVectors int
	// SimLanes is the register-block lane width of one bit-parallel pass
	// (1..stoch.MaxPackLanes; the zero-delay kernel evaluates four 64-lane
	// words at a time, so multiples of 256 keep it full, and the timed
	// engine visits each gate one word at a time). The width does not
	// change which vectors are drawn or their transition counts, but each
	// width sums the per-block energies in its own order, so the
	// reduction can differ in the last digits across widths. 0 means
	// 64 — one word per register, the pre-wide-block default.
	SimLanes int
	Lib      *library.Library
}

// DefaultOptions mirrors the paper's setup (densities up to one million
// transitions per second, a 10 MHz scenario-B clock) with horizons chosen
// so every input sees hundreds of transitions. The S column measures on
// the compiled bit-parallel backends in every delay mode.
func DefaultOptions() Options {
	return Options{
		Params:     core.DefaultParams(),
		Delay:      delay.DefaultParams(),
		Sim:        sim.DefaultParams(),
		HorizonA:   5e-4,
		CyclesB:    2000,
		PeriodB:    100e-9,
		MaxDensA:   1e6,
		Seed:       1996, // the paper's year; any fixed value works
		Workers:    runtime.NumCPU(),
		SimVectors: stoch.MaxLanes,
		SimLanes:   stoch.MaxLanes,
		Lib:        library.Default(),
	}
}

// InputStats draws primary-input statistics for the scenario. Scenario A
// randomizes per input (deterministically from the seed); scenario B is
// fixed. Densities are in transitions/second in both cases (scenario B's
// 0.5 transitions/cycle divided by the period).
func InputStats(c *circuit.Circuit, sc Scenario, opt Options) map[string]stoch.Signal {
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	rng := rand.New(rand.NewSource(opt.Seed))
	for _, in := range c.Inputs {
		switch sc {
		case ScenarioA:
			// Keep probabilities away from the exact endpoints so every
			// requested density is realizable by the waveform generator.
			p := 0.02 + 0.96*rng.Float64()
			stats[in] = stoch.Signal{P: p, D: rng.Float64() * opt.MaxDensA}
		default:
			stats[in] = stoch.Signal{P: 0.5, D: 0.5 / opt.PeriodB}
		}
	}
	return stats
}

// ---------------------------------------------------------------------
// Table 1 — the motivation gate.

// MotivationGate returns the paper's y = ¬((a1+a2)·b) gate (Fig. 1) in
// the Fig. 2(a) configuration.
func MotivationGate() *gate.Gate {
	return gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
}

// Table1Case is one activity row of Table 1(b).
type Table1Case struct {
	Name      string
	Densities [3]float64 // D(a1), D(a2), D(b) in transitions/second
}

// Table1Cases reproduces the two activity scenarios of Table 1.
func Table1Cases() []Table1Case {
	return []Table1Case{
		{Name: "(1)", Densities: [3]float64{1e4, 1e5, 1e6}},
		{Name: "(2)", Densities: [3]float64{1e6, 1e5, 1e4}},
	}
}

// Table1Result holds the regenerated Table 1(b).
type Table1Result struct {
	Labels  []string     // configuration labels in deterministic order
	Keys    []string     // the ConfigKey of each labeled configuration
	Rel     [][]float64  // [case][config] power relative to the reference
	Red     []float64    // per case: 1 - min/max within the row
	BestIdx []int        // per case: index of the best configuration
	Cases   []Table1Case // the activity rows
}

// Table1 evaluates all four configurations of the motivation gate under
// both activity cases. Powers are normalized to the last configuration's
// power in case (1), following the paper ("relative to configuration (D)
// in case (1)").
func Table1(prm core.Params) (*Table1Result, error) {
	g := MotivationGate()
	configs := g.AllConfigs()
	res := &Table1Result{Cases: Table1Cases()}
	for i, cfg := range configs {
		res.Labels = append(res.Labels, string(rune('A'+i)))
		res.Keys = append(res.Keys, cfg.ConfigKey())
	}
	load := prm.OutputLoad(1)
	var ref float64
	for ci, tc := range res.Cases {
		row := make([]float64, len(configs))
		for i, cfg := range configs {
			in := []stoch.Signal{
				{P: 0.5, D: tc.Densities[0]},
				{P: 0.5, D: tc.Densities[1]},
				{P: 0.5, D: tc.Densities[2]},
			}
			a, err := core.AnalyzeGate(cfg, in, load, prm)
			if err != nil {
				return nil, err
			}
			row[i] = a.Power
		}
		if ci == 0 {
			ref = row[len(row)-1]
		}
		min, max, best := row[0], row[0], 0
		for i, p := range row {
			if p < min {
				min, best = p, i
			}
			if p > max {
				max = p
			}
		}
		for i := range row {
			row[i] /= ref
		}
		res.Rel = append(res.Rel, row)
		res.Red = append(res.Red, 1-min/max)
		res.BestIdx = append(res.BestIdx, best)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Table 3 — the benchmark sweep.

// Table3Row is one benchmark row: the paper's G, M, S and D columns.
type Table3Row struct {
	Name     string
	Gates    int
	ModelRed float64 // M: model best-vs-worst power reduction, fraction
	SimRed   float64 // S: switch-level-simulated reduction, fraction
	DelayInc float64 // D: delay increase of the power-optimal circuit, fraction
	Changed  int     // gates whose configuration changed (diagnostic)
}

// Averages summarizes a scenario's sweep.
type Averages struct {
	ModelRed, SimRed, DelayInc float64
	Rows                       int
}

// RunBenchmark produces one Table 3 row.
func RunBenchmark(name string, sc Scenario, opt Options) (Table3Row, error) {
	c, err := mcnc.Load(name, opt.Lib)
	if err != nil {
		return Table3Row{}, err
	}
	return RunCircuit(c, sc, opt)
}

// RunCircuit measures the three Table 3 columns on an arbitrary circuit.
func RunCircuit(c *circuit.Circuit, sc Scenario, opt Options) (Table3Row, error) {
	row := Table3Row{Name: c.Name, Gates: len(c.Gates)}
	pi := InputStats(c, sc, opt)
	ro := reorder.DefaultOptions()
	ro.Params = opt.Params
	// Run's row pool owns the parallelism; a per-row candidate-search
	// pool on top would oversubscribe the machine (same rule as
	// sweep.runJob).
	ro.Workers = 1
	best, worst, err := reorder.BestAndWorst(c, pi, ro)
	if err != nil {
		return row, err
	}
	row.Changed = best.GatesChanged
	if worst.PowerAfter > 0 {
		row.ModelRed = (worst.PowerAfter - best.PowerAfter) / worst.PowerAfter
	}
	row.SimRed, err = SimReduction(c, best.Circuit, worst.Circuit, pi, sc, opt.Seed^int64(len(c.Gates)), opt)
	if err != nil {
		return row, err
	}
	row.DelayInc, err = DelayIncrease(c, best.Circuit, opt.Delay)
	if err != nil {
		return row, err
	}
	return row, nil
}

// scenarioSignals converts the per-second input statistics into the form
// the scenario's waveform generator consumes: scenario B latches inputs
// on a clock, so densities become transitions per cycle. Shared by every
// S-column measurement path.
func scenarioSignals(pi map[string]stoch.Signal, sc Scenario, opt Options) map[string]stoch.Signal {
	if sc != ScenarioB {
		return pi
	}
	perCycle := make(map[string]stoch.Signal, len(pi))
	for net, s := range pi {
		perCycle[net] = stoch.Signal{P: s.P, D: s.D * opt.PeriodB}
	}
	return perCycle
}

// scenarioHorizon returns the simulated seconds of one realization.
func scenarioHorizon(sc Scenario, opt Options) float64 {
	if sc == ScenarioB {
		return float64(opt.CyclesB) * opt.PeriodB
	}
	return opt.HorizonA
}

// scenarioDrawer returns the drawer of stimulus realizations appropriate
// to the scenario, drawing from the rng.
func scenarioDrawer(inputs []string, sigs map[string]stoch.Signal, sc Scenario, opt Options, rng *rand.Rand) sim.Drawer {
	if sc == ScenarioB {
		return sim.ClockedDrawer(inputs, sigs, opt.CyclesB, opt.PeriodB, rng)
	}
	return sim.ExponentialDrawer(inputs, sigs, opt.HorizonA, rng)
}

// SimReduction measures the switch-level-simulated best-vs-worst power
// reduction (Table 3's S column): both circuits simulated under identical
// scenario-appropriate stimulus drawn deterministically from seed. The
// measurement streams opt.SimVectors Monte Carlo realizations through the
// compiled engines in register blocks of opt.SimLanes lanes per pass —
// zero-delay runs on the levelized compiled engine, unit- and Elmore-delay
// runs on the timed compiled engine (both circuits on one shared tick
// grid). The lane width does not change the stimulus or the transition
// counts, only the floating-point order in which block energies sum, so
// results at different widths agree to rounding.
func SimReduction(c, best, worst *circuit.Circuit, pi map[string]stoch.Signal, sc Scenario, seed int64, opt Options) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	sigs := scenarioSignals(pi, sc, opt)
	horizon := scenarioHorizon(sc, opt)
	lanes := opt.SimLanes
	if lanes == 0 {
		lanes = stoch.MaxLanes
	}
	vectors := opt.SimVectors
	if vectors == 0 {
		vectors = lanes
	}
	draw := scenarioDrawer(c.Inputs, sigs, sc, opt, rng)
	return sim.ReductionVectors(best, worst, draw, vectors, lanes, horizon, opt.Sim)
}

// DelayIncrease returns the relative critical-path change from before to
// after (Table 3's D column).
func DelayIncrease(before, after *circuit.Circuit, prm delay.Params) (float64, error) {
	d0, err := delay.CircuitDelay(before, prm)
	if err != nil {
		return 0, err
	}
	return DelayIncreaseFrom(d0.Delay, after, prm)
}

// DelayIncreaseFrom is DelayIncrease with the before circuit's critical-
// path delay d0 already known — for callers that compare many reorderings
// against one unchanged circuit.
func DelayIncreaseFrom(d0 float64, after *circuit.Circuit, prm delay.Params) (float64, error) {
	d1, err := delay.CircuitDelay(after, prm)
	if err != nil {
		return 0, err
	}
	if d0 == 0 {
		return 0, nil
	}
	return (d1.Delay - d0) / d0, nil
}

// Run sweeps the named benchmarks (all of Table 3 when names is empty),
// distributing independent rows across opt.Workers goroutines (sequential
// when Workers ≤ 1). Results are deterministic and ordered regardless of
// the worker count: every row's statistics and stimulus derive only from
// the benchmark name and the fixed seed.
func Run(sc Scenario, names []string, opt Options) ([]Table3Row, Averages, error) {
	if len(names) == 0 {
		names = mcnc.Names()
	}
	rows := make([]Table3Row, len(names))
	errs := make([]error, len(names))
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(names) {
		workers = len(names)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i], errs[i] = RunBenchmark(names[i], sc, opt)
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	var avg Averages
	for i, row := range rows {
		if errs[i] != nil {
			return nil, Averages{}, fmt.Errorf("expt: %s: %w", names[i], errs[i])
		}
		avg.ModelRed += row.ModelRed
		avg.SimRed += row.SimRed
		avg.DelayInc += row.DelayInc
		avg.Rows++
	}
	if avg.Rows > 0 {
		avg.ModelRed /= float64(avg.Rows)
		avg.SimRed /= float64(avg.Rows)
		avg.DelayInc /= float64(avg.Rows)
	}
	return rows, avg, nil
}

// PaperNumbers are the numbers the paper reports for Table 3, used by the
// comparison printout: scenario A improves power
// by 12% (measured) / 9% (model) with a 4% average delay increase;
// scenario B achieves roughly half the scenario-A reduction.
type PaperNumbers struct {
	SimRedA, ModelRedA, DelayIncA float64
	HalfRatioB                    float64 // S_B ≈ HalfRatioB · S_A
}

// Paper returns the published aggregate results.
func Paper() PaperNumbers {
	return PaperNumbers{SimRedA: 0.12, ModelRedA: 0.09, DelayIncA: 0.04, HalfRatioB: 0.5}
}

// ---------------------------------------------------------------------
// Formatting.

// FormatTable renders rows with aligned columns for terminal output.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a fraction as a signed percentage.
func Pct(f float64) string {
	return fmt.Sprintf("%+.1f%%", 100*f)
}
