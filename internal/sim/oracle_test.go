package sim_test

// The compiled engines checked against the reference semantics. The
// reference is internal/gen's naive oracle, which imports sim, so these
// tests live in the external test package.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/sp"
	"repro/internal/stoch"
)

func relClose(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-30)
}

// oracleLanes runs the oracle on every lane's waveforms and returns the
// per-lane references.
func oracleLanes(t *testing.T, c *circuit.Circuit, laneWaves []map[string]*stoch.Waveform, horizon float64, prm sim.Params) []*gen.OracleResult {
	t.Helper()
	refs := make([]*gen.OracleResult, len(laneWaves))
	for l, waves := range laneWaves {
		ref, err := gen.OracleRun(c, waves, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		refs[l] = ref
	}
	return refs
}

// checkLanes holds every lane of a RunLanes result to its oracle run:
// per-net transition counts, internal flips, output flips and energy,
// plus the lane totals the aggregate Result reports.
func checkLanes(t *testing.T, br *sim.BitResult, refs []*gen.OracleResult, horizon float64) {
	t.Helper()
	var totalEnergy float64
	for l, ref := range refs {
		for net, want := range ref.NetTransitions {
			if got := br.LaneNetTransitions[net][l]; got != want {
				t.Fatalf("lane %d net %s: compiled %d transitions, oracle %d", l, net, got, want)
			}
		}
		for net, row := range br.LaneNetTransitions {
			if row[l] != ref.NetTransitions[net] {
				t.Fatalf("lane %d net %s: compiled %d transitions, oracle %d", l, net, row[l], ref.NetTransitions[net])
			}
		}
		if br.LaneInternalFlips[l] != ref.InternalFlips {
			t.Fatalf("lane %d: internal flips %d vs oracle %d", l, br.LaneInternalFlips[l], ref.InternalFlips)
		}
		if br.LaneOutputFlips[l] != ref.OutputFlips {
			t.Fatalf("lane %d: output flips %d vs oracle %d", l, br.LaneOutputFlips[l], ref.OutputFlips)
		}
		if !relClose(br.LaneEnergy[l], ref.Energy, 1e-9) {
			t.Fatalf("lane %d: energy %g vs oracle %g", l, br.LaneEnergy[l], ref.Energy)
		}
		totalEnergy += ref.Energy
	}
	if !relClose(br.Energy, totalEnergy, 1e-9) {
		t.Fatalf("total energy %g, sum of oracle lanes %g", br.Energy, totalEnergy)
	}
	wantPower := totalEnergy / (float64(len(refs)) * horizon)
	if !relClose(br.Power, wantPower, 1e-9) {
		t.Fatalf("power %g, want mean per-lane %g", br.Power, wantPower)
	}
	if br.OutputFlips == 0 {
		t.Fatal("no output activity: the equivalence check is vacuous")
	}
}

// checkRun holds a single-vector Run result to the oracle, per gate.
func checkRun(t *testing.T, label string, got *sim.Result, ref *gen.OracleResult) {
	t.Helper()
	for net, want := range ref.NetTransitions {
		if got.NetTransitions[net] != want {
			t.Errorf("%s net %s: %d vs oracle %d transitions", label, net, got.NetTransitions[net], want)
		}
	}
	if got.InternalFlips != ref.InternalFlips || got.OutputFlips != ref.OutputFlips {
		t.Errorf("%s flips: compiled %d/%d, oracle %d/%d",
			label, got.InternalFlips, got.OutputFlips, ref.InternalFlips, ref.OutputFlips)
	}
	if !relClose(got.Energy, ref.Energy, 1e-9) {
		t.Errorf("%s energy %g vs oracle %g", label, got.Energy, ref.Energy)
	}
	for name, want := range ref.PerGate {
		if g := got.PerGate[name]; !relClose(g, want, 1e-9) {
			t.Errorf("%s gate %s energy %g vs oracle %g", label, name, g, want)
		}
	}
}

// drawLanes draws 64 Monte Carlo stimulus vectors for c under per-input
// statistics randomized from seed.
func drawLanes(t *testing.T, c *circuit.Circuit, horizon float64, seed int64) []map[string]*stoch.Waveform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.1 + 0.8*rng.Float64(), D: 1e5 + 4e5*rng.Float64()}
	}
	laneWaves, err := sim.GenerateLaneWaveforms(c.Inputs, stats, horizon, stoch.MaxLanes, rng)
	if err != nil {
		t.Fatal(err)
	}
	return laneWaves
}

// TestLaneEquivalenceEmbeddedBenchmarks is the zero-delay property test:
// on every embedded MCNC benchmark, the compiled levelized engine must
// reproduce the oracle's zero-delay measurement lane for lane under 64
// independently drawn Monte Carlo stimulus vectors.
func TestLaneEquivalenceEmbeddedBenchmarks(t *testing.T) {
	lib := library.Default()
	prm := sim.DefaultParams()
	prm.Mode = sim.ZeroDelay
	const horizon = 1e-4
	for _, name := range mcnc.EmbeddedNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := mcnc.Load(name, lib)
			if err != nil {
				t.Fatal(err)
			}
			laneWaves := drawLanes(t, c, horizon, int64(len(name))*7919)
			stim, err := stoch.PackWaveforms(c.Inputs, laneWaves, horizon)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sim.Compile(c, prm)
			if err != nil {
				t.Fatal(err)
			}
			br, err := prog.RunLanes(stim)
			if err != nil {
				t.Fatal(err)
			}
			checkLanes(t, br, oracleLanes(t, c, laneWaves, horizon, prm), horizon)
		})
	}
}

// timedLaneEquivalence is the timed property check: on every embedded
// MCNC benchmark, the timed compiled engine — cluster-aligned packing
// included — must reproduce the oracle's timed measurement lane for lane
// under 64 independently drawn Monte Carlo stimulus vectors, on the same
// tick grid.
func timedLaneEquivalence(t *testing.T, prm sim.Params) {
	lib := library.Default()
	const horizon = 1e-4
	for _, name := range mcnc.EmbeddedNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := mcnc.Load(name, lib)
			if err != nil {
				t.Fatal(err)
			}
			laneWaves := drawLanes(t, c, horizon, int64(len(name))*6007)
			prog, err := sim.CompileTimed(c, prm)
			if err != nil {
				t.Fatal(err)
			}
			stim, err := prog.PackTimed(laneWaves, horizon)
			if err != nil {
				t.Fatal(err)
			}
			br, err := prog.RunLanes(stim)
			if err != nil {
				t.Fatal(err)
			}
			checkLanes(t, br, oracleLanes(t, c, laneWaves, horizon, prm), horizon)
		})
	}
}

// TestTimedLaneEquivalenceUnitDelay: the automatic tick equals the unit
// delay, so quantization of the gate delays is exact.
func TestTimedLaneEquivalenceUnitDelay(t *testing.T) {
	timedLaneEquivalence(t, sim.DefaultParams())
}

// TestTimedLaneEquivalenceElmoreDelay: heterogeneous per-gate delays
// exercise the timing wheel's multi-tick scheduling; engine and oracle
// quantize delays to the same automatic tick, so equality is still exact.
func TestTimedLaneEquivalenceElmoreDelay(t *testing.T) {
	prm := sim.DefaultParams()
	prm.Mode = sim.ElmoreDelay
	timedLaneEquivalence(t, prm)
}

// c17Waves loads c17 and draws one stimulus vector for it.
func c17Waves(t *testing.T, seed int64, horizon float64) (*circuit.Circuit, map[string]*stoch.Waveform) {
	t.Helper()
	c, err := mcnc.Load("c17", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	waves, err := sim.GenerateWaveforms(c.Inputs, stats, horizon, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return c, waves
}

// TestRunDispatchesToBitParallel: sim.Run packs one vector into a single
// lane of the levelized engine; in zero-delay mode its Result must match
// the oracle's, gate by gate.
func TestRunDispatchesToBitParallel(t *testing.T) {
	const horizon = 1e-4
	c, waves := c17Waves(t, 21, horizon)
	prm := sim.DefaultParams()
	prm.Mode = sim.ZeroDelay
	got, err := sim.Run(c, waves, horizon, prm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gen.OracleRun(c, waves, horizon, prm)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, "zero", got, ref)
}

// TestTimedDispatchThroughRun: sim.Run in a timed mode runs one lane of
// the timed engine on the unaligned tick axis; its Result must match the
// oracle's, gate by gate.
func TestTimedDispatchThroughRun(t *testing.T) {
	const horizon = 1e-4
	c, waves := c17Waves(t, 23, horizon)
	for _, m := range []struct {
		name string
		mode sim.DelayMode
	}{{"unit", sim.UnitDelay}, {"elmore", sim.ElmoreDelay}} {
		prm := sim.DefaultParams()
		prm.Mode = m.mode
		got, err := sim.Run(c, waves, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := gen.OracleRun(c, waves, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, m.name, got, ref)
	}
}

// TestReductionVectorsSharedTick: a best/worst pair with different Elmore
// delays measures on one shared grid, deterministically and at any block
// width, and agrees with per-lane oracle energies in unit mode.
func TestReductionVectorsSharedTick(t *testing.T) {
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	cfgs := g.AllConfigs()
	circ := func(cfg *gate.Gate) *circuit.Circuit {
		return &circuit.Circuit{
			Name:    "one",
			Inputs:  []string{"a1", "a2", "b"},
			Outputs: []string{"y"},
			Gates:   []*circuit.Instance{{Name: "u1", Cell: cfg, Pins: []string{"a1", "a2", "b"}, Out: "y"}},
		}
	}
	best, worst := circ(cfgs[0]), circ(cfgs[len(cfgs)-1])
	stats := map[string]stoch.Signal{
		"a1": {P: 0.5, D: 1e4}, "a2": {P: 0.5, D: 1e5}, "b": {P: 0.5, D: 1e6},
	}
	const horizon = 2e-3
	rng := rand.New(rand.NewSource(31))
	laneWaves, err := sim.GenerateLaneWaveforms(best.Inputs, stats, horizon, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	reduction := func(lanes int, prm sim.Params) float64 {
		// The same seed redraws laneWaves through the scenario-A drawer.
		draw := sim.ExponentialDrawer(best.Inputs, stats, horizon, rand.New(rand.NewSource(31)))
		red, err := sim.ReductionVectors(best, worst, draw, len(laneWaves), lanes, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		return red
	}
	for _, mode := range []sim.DelayMode{sim.UnitDelay, sim.ElmoreDelay} {
		prm := sim.DefaultParams()
		prm.Mode = mode
		red1, red2 := reduction(8, prm), reduction(8, prm)
		if red1 != red2 {
			t.Errorf("mode %d: ReductionVectors not deterministic: %v vs %v", mode, red1, red2)
		}
		if red3 := reduction(3, prm); !relClose(red1, red3, 1e-12) {
			t.Errorf("mode %d: 3-lane blocks give %v, one 8-lane block %v", mode, red3, red1)
		}
		if red1 <= -1 || red1 >= 1 {
			t.Errorf("mode %d: reduction %v outside (-1,1)", mode, red1)
		}
		// Cross-check against per-lane oracle energies on the same
		// quantized grid (unit mode shares the tick automatically).
		if mode == sim.UnitDelay {
			var eb, ew float64
			for _, ref := range oracleLanes(t, best, laneWaves, horizon, prm) {
				eb += ref.Energy
			}
			for _, ref := range oracleLanes(t, worst, laneWaves, horizon, prm) {
				ew += ref.Energy
			}
			want := (ew - eb) / ew
			if !relClose(red1, want, 1e-9) {
				t.Errorf("unit: ReductionVectors %v, oracle says %v", red1, want)
			}
		}
	}
}

// TestReductionPairMatchesTwoPrograms: the fused best/worst program the S
// column runs measures exactly what two separately compiled programs
// measure. On every embedded benchmark's best/worst pair in all four
// modes, under scenario-A and scenario-B stimulus and at 1, 64, 200 and
// 512 lanes, every block's best and worst energies and ReductionVectors'
// ratio must equal two CompileTimed + RunEnergy calls bit for bit — under
// unit delay, and under Elmore delay for the identical delay-rule pair.
func TestReductionPairMatchesTwoPrograms(t *testing.T) {
	const (
		vectors  = 300
		horizonA = 2e-5
		cyclesB  = 10
		periodB  = 40e-9
	)
	lib := library.Default()
	names := mcnc.EmbeddedNames()
	if testing.Short() {
		names = []string{"c17", "rca8"}
	}
	for _, name := range names {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		statsA := make(map[string]stoch.Signal, len(c.Inputs))
		statsB := make(map[string]stoch.Signal, len(c.Inputs))
		for i, in := range c.Inputs {
			statsA[in] = stoch.Signal{P: 0.2 + 0.6*float64(i%3)/2, D: 1e5 + 1e5*float64(i%4)}
			statsB[in] = stoch.Signal{P: 0.5, D: 0.5} // per clock cycle
		}
		// Each scenario draws the same stimulus two ways: as waveform maps
		// for the two programs and through its drawer for ReductionVectors.
		scenarios := []struct {
			name    string
			horizon float64
			draw    func(rng *rand.Rand) (map[string]*stoch.Waveform, error)
			drawer  func(rng *rand.Rand) sim.Drawer
		}{
			{"A", horizonA, func(rng *rand.Rand) (map[string]*stoch.Waveform, error) {
				return sim.GenerateWaveforms(c.Inputs, statsA, horizonA, rng)
			}, func(rng *rand.Rand) sim.Drawer {
				return sim.ExponentialDrawer(c.Inputs, statsA, horizonA, rng)
			}},
			{"B", cyclesB * periodB, func(rng *rand.Rand) (map[string]*stoch.Waveform, error) {
				return sim.GenerateClockedWaveforms(c.Inputs, statsB, cyclesB, periodB, rng)
			}, func(rng *rand.Rand) sim.Drawer {
				return sim.ClockedDrawer(c.Inputs, statsB, cyclesB, periodB, rng)
			}},
		}
		for _, mode := range []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral} {
			opt := reorder.DefaultOptions()
			opt.Mode = mode
			best, worst, err := reorder.BestAndWorst(c, statsA, opt)
			if err != nil {
				t.Fatal(err)
			}
			delays := []string{"unit"}
			if mode == reorder.DelayRule {
				delays = append(delays, "elmore")
			}
			for _, dm := range delays {
				prm := sim.DefaultParams()
				if prm.Mode, err = sim.ParseDelayMode(dm); err != nil {
					t.Fatal(err)
				}
				for _, sc := range scenarios {
					label := fmt.Sprintf("%s/%s/%s/%s", name, mode, dm, sc.name)
					checkPairMatchesTwoPrograms(t, label, best.Circuit, worst.Circuit, sc.draw, sc.drawer, vectors, sc.horizon, prm)
				}
			}
		}
	}
}

func checkPairMatchesTwoPrograms(t *testing.T, label string, best, worst *circuit.Circuit,
	draw func(*rand.Rand) (map[string]*stoch.Waveform, error), drawer func(*rand.Rand) sim.Drawer,
	vectors int, horizon float64, prm sim.Params) {
	t.Helper()
	pair, _, _, err := sim.CompileTimedPair(best, worst, prm)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if pair == nil {
		t.Fatalf("%s: the pair's quantized delays agree, but it compiled to two programs", label)
	}
	pb, err := sim.CompileTimed(best, prm)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := sim.CompileTimed(worst, prm)
	if err != nil {
		t.Fatal(err)
	}
	guard := max(pb.SettleTicks(), pw.SettleTicks())
	if pair.Tick() != pb.Tick() || pair.Tick() != pw.Tick() || pair.SettleTicks() != guard {
		t.Fatalf("%s: pair tick %g settle %d, programs tick %g/%g settle %d",
			label, pair.Tick(), pair.SettleTicks(), pb.Tick(), pw.Tick(), guard)
	}
	rng := rand.New(rand.NewSource(11))
	laneWaves := make([]map[string]*stoch.Waveform, vectors)
	for i := range laneWaves {
		if laneWaves[i], err = draw(rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, lanes := range []int{1, 64, 200, 512} {
		var eb, ew float64
		for lo := 0; lo < vectors; lo += lanes {
			block := laneWaves[lo:min(lo+lanes, vectors)]
			stim, err := stoch.PackTimedWaveforms(best.Inputs, block, horizon, pb.Tick(), guard)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := pb.RunEnergy(stim)
			if err != nil {
				t.Fatal(err)
			}
			wantW, err := pw.RunEnergy(stim)
			if err != nil {
				t.Fatal(err)
			}
			gotB, gotW, err := pair.PairEnergies(stim)
			if err != nil {
				t.Fatal(err)
			}
			if gotB != wantB || gotW != wantW {
				t.Fatalf("%s/%d lanes, block at %d: pair energies %v/%v, two programs %v/%v",
					label, lanes, lo, gotB, gotW, wantB, wantW)
			}
			eb += wantB
			ew += wantW
		}
		if ew == 0 {
			t.Fatalf("%s: worst circuit dissipates nothing; the check is vacuous", label)
		}
		red, err := sim.ReductionVectors(best, worst, drawer(rand.New(rand.NewSource(11))), vectors, lanes, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		if want := (ew - eb) / ew; red != want {
			t.Fatalf("%s/%d lanes: ReductionVectors %v, two programs %v", label, lanes, red, want)
		}
	}
}

// TestRunTraceMatchesOracle: a trace replayed from its initial state is a
// consistent history of the run. Initial values are the oracle's settled
// t=0 state, every change flips its net, per-net change counts are the
// oracle's transition counts, input changes sit at their (tick-snapped)
// stimulus times, and gate outputs change only on grid instants.
func TestRunTraceMatchesOracle(t *testing.T) {
	const horizon = 2e-5
	c, waves := c17Waves(t, 29, horizon)
	init := make(map[string]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		init[in] = waves[in].Initial
	}
	settled, err := gen.OracleEval(c, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		mode sim.DelayMode
	}{{"zero", sim.ZeroDelay}, {"unit", sim.UnitDelay}, {"elmore", sim.ElmoreDelay}} {
		prm := sim.DefaultParams()
		prm.Mode = m.mode
		res, tr, err := sim.RunTrace(c, waves, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := gen.OracleRun(c, waves, horizon, prm)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, m.name, res, ref)
		tick := 0.0
		if m.mode != sim.ZeroDelay {
			if tick, _, _, err = sim.TickPlan(c, prm); err != nil {
				t.Fatal(err)
			}
		}
		// Stimulus instants, snapped to the grid in the timed modes.
		inputAt := map[string]map[float64]bool{}
		for _, in := range c.Inputs {
			inputAt[in] = map[float64]bool{}
			for _, e := range waves[in].Events {
				at := e.Time
				if tick > 0 {
					at = math.Round(e.Time/tick) * tick
				}
				inputAt[in][at] = true
			}
		}
		value := map[string]bool{}
		for _, n := range tr.Nets {
			if tr.Initial[n] != settled[n] {
				t.Fatalf("%s: initial %s = %v, oracle settles to %v", m.name, n, tr.Initial[n], settled[n])
			}
			value[n] = tr.Initial[n]
		}
		counts := map[string]int{}
		last := 0.0
		for _, e := range tr.Changes {
			net := tr.Nets[e.Input]
			if e.Value == value[net] {
				t.Fatalf("%s: change of %s at %g does not flip it", m.name, net, e.Time)
			}
			if e.Time < last {
				t.Fatalf("%s: change at %g after %g", m.name, e.Time, last)
			}
			if _, isInput := inputAt[net]; isInput && !inputAt[net][e.Time] {
				t.Fatalf("%s: input %s changes at %g, not a stimulus instant", m.name, net, e.Time)
			}
			if tick > 0 && !relClose(e.Time/tick, math.Round(e.Time/tick), 1e-9) {
				t.Fatalf("%s: change at %g is off the %g s grid", m.name, e.Time, tick)
			}
			value[net], last = e.Value, e.Time
			counts[net]++
		}
		for _, n := range tr.Nets {
			if counts[n] != ref.NetTransitions[n] {
				t.Errorf("%s: net %s changes %d times in the trace, oracle %d", m.name, n, counts[n], ref.NetTransitions[n])
			}
		}
	}
}
