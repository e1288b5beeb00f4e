// The differential harness: one generated (or parsed) circuit is pushed
// through every implementation pair that must agree — the three
// simulation backends against the naive oracle in every delay mode, the
// incremental power engine against from-scratch re-analysis under random
// mutation, and the optimizer against functional equivalence and its own
// power accounting. Any disagreement is a Discrepancy carrying a
// replayable (profile, seed, GNL) triple.
package gen

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/netlist"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
)

// CheckOptions selects and bounds the differential checks.
type CheckOptions struct {
	Lib *library.Library // nil: the default Table 2 library

	Engines     bool // cross-check the compiled engines against the oracle in all delay modes
	Incremental bool // incremental power engine vs full re-analysis under mutation
	Optimize    bool // optimize-then-verify: equivalence + power accounting

	// Horizon bounds the simulated time per engine run. Zero selects a
	// horizon sized for roughly eight transitions per input at the
	// profile's mean density.
	Horizon float64

	// ExactInputLimit is the largest primary-input count checked with
	// exhaustive functional composition; wider circuits fall back to
	// EquivTrials random vectors (seeded deterministically — see
	// DeriveSeed).
	ExactInputLimit int
	EquivTrials     int

	// MutationSteps is the number of random SetConfig/SetInputs steps the
	// incremental check applies, each followed by a full-re-analysis
	// comparison.
	MutationSteps int

	// LaneWidths are the bit-parallel register-block widths the engine
	// check exercises beyond the single-vector run: the shared stimulus
	// is replicated into every lane of a width-W pack and each lane must
	// reproduce the oracle's measurement exactly, so the wide kernels
	// (W > 1 words) are pinned to the reference. Nil skips the wide
	// sub-check.
	LaneWidths []int
}

// DefaultCheckOptions enables every check with bounds suitable for the
// go-test property sweep.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{
		Engines:         true,
		Incremental:     true,
		Optimize:        true,
		ExactInputLimit: 10,
		EquivTrials:     64,
		MutationSteps:   6,
		LaneWidths:      []int{stoch.MaxLanes, 4 * stoch.MaxLanes, 8 * stoch.MaxLanes},
	}
}

func (o CheckOptions) lib() *library.Library {
	if o.Lib != nil {
		return o.Lib
	}
	return library.Default()
}

// Discrepancy is one differential failure: which check disagreed, on what,
// and everything needed to replay it.
type Discrepancy struct {
	Check   string // failing sub-check, e.g. "engines/unit/bitparallel-vs-oracle"
	Detail  string // human-readable witness
	Profile string // generation profile name ("" when the circuit was parsed)
	Seed    int64  // harness seed driving stimulus and trials
	GNL     string // the failing circuit, replayable via netlist.ReadGNL
}

// Error renders the discrepancy as a one-line failure message.
func (d *Discrepancy) Error() string {
	return fmt.Sprintf("gen: %s: %s (profile %s seed %d, %d-byte gnl)",
		d.Check, d.Detail, d.Profile, d.Seed, len(d.GNL))
}

// Artifact is the JSON form of a discrepancy — one line of a failure
// corpus, consumed by Replay.
type Artifact struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Check   string `json:"check"`
	Detail  string `json:"detail"`
	GNL     string `json:"gnl"`
}

// Artifact converts the discrepancy for serialization.
func (d *Discrepancy) Artifact() Artifact {
	return Artifact{Profile: d.Profile, Seed: d.Seed, Check: d.Check, Detail: d.Detail, GNL: d.GNL}
}

// MarshalJSONL renders the artifact as one JSONL line.
func (a Artifact) MarshalJSONL() ([]byte, error) {
	b, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Replay re-runs the differential checks on an artifact's circuit with
// its original profile and seed. A nil return means the failure no longer
// reproduces.
func Replay(a Artifact, opts CheckOptions) (*Discrepancy, error) {
	c, err := netlist.ReadGNL(strings.NewReader(a.GNL), opts.lib())
	if err != nil {
		return nil, fmt.Errorf("gen: replay: %w", err)
	}
	p, ok := ProfileByName(a.Profile)
	if !ok {
		p = DefaultProfile()
	}
	return Check(c, p, a.Seed, opts), nil
}

func gnlOf(c *circuit.Circuit) string {
	var b strings.Builder
	if err := netlist.WriteGNL(&b, c); err != nil {
		return fmt.Sprintf("# gnl render failed: %v", err)
	}
	return b.String()
}

// Check runs every enabled differential check on c, deriving all
// randomness from (p.Name, seed). It returns nil when every
// implementation pair agrees.
func Check(c *circuit.Circuit, p Profile, seed int64, opts CheckOptions) *Discrepancy {
	fail := func(check, detail string) *Discrepancy {
		return &Discrepancy{Check: check, Detail: detail, Profile: p.Name, Seed: seed, GNL: gnlOf(c)}
	}
	if err := c.Validate(); err != nil {
		return fail("validate", err.Error())
	}
	pi := InputStats(c, p, seed)

	if d := checkFunctional(c, p, seed, opts, fail); d != nil {
		return d
	}
	if opts.Engines {
		if d := checkEngines(c, p, seed, opts, pi, fail); d != nil {
			return d
		}
	}
	if opts.Incremental {
		if d := checkIncremental(c, p, seed, opts, pi, fail); d != nil {
			return d
		}
	}
	if opts.Optimize {
		if d := checkOptimize(c, p, seed, opts, pi, fail); d != nil {
			return d
		}
	}
	return nil
}

// checkFunctional pins circuit.Eval (the basis of EquivalentRandom and
// the optimizer's verification path) against the oracle's fixpoint
// evaluation — exhaustively for narrow circuits, on random vectors
// otherwise.
func checkFunctional(c *circuit.Circuit, p Profile, seed int64, opts CheckOptions,
	fail func(string, string) *Discrepancy) *Discrepancy {
	n := len(c.Inputs)
	tryVector := func(in map[string]bool, label string) *Discrepancy {
		want, err := OracleEval(c, in)
		if err != nil {
			return fail("functional/oracle", err.Error())
		}
		got, err := c.Eval(in)
		if err != nil {
			return fail("functional/eval", err.Error())
		}
		for _, net := range c.Nets() {
			if got[net] != want[net] {
				return fail("functional", fmt.Sprintf("net %s: eval %v, oracle %v at %s", net, got[net], want[net], label))
			}
		}
		return nil
	}
	if n <= opts.ExactInputLimit {
		in := make(map[string]bool, n)
		for m := uint(0); m < 1<<n; m++ {
			for i, name := range c.Inputs {
				in[name] = m>>i&1 == 1
			}
			if d := tryVector(in, fmt.Sprintf("minterm %d", m)); d != nil {
				return d
			}
		}
		return nil
	}
	rng := rngFor(seed, p.Name, "functional")
	trials := opts.EquivTrials
	if trials <= 0 {
		trials = 64
	}
	for trial := 0; trial < trials; trial++ {
		in := make(map[string]bool, n)
		for _, name := range c.Inputs {
			in[name] = rng.Intn(2) == 1
		}
		if d := tryVector(in, fmt.Sprintf("random trial %d", trial)); d != nil {
			return d
		}
	}
	return nil
}

// measure is the engine-agnostic view of a simulation result: every
// quantity all backends must agree on.
type measure struct {
	energy           float64
	internal, output int
	netTrans         map[string]int
	perGate          map[string]float64
}

func measureOf(r *sim.Result) measure {
	return measure{r.Energy, r.InternalFlips, r.OutputFlips, r.NetTransitions, r.PerGate}
}

func measureOfOracle(r *OracleResult) measure {
	return measure{r.Energy, r.InternalFlips, r.OutputFlips, r.NetTransitions, r.PerGate}
}

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-30 {
		return true
	}
	return math.Abs(a-b)/scale <= rel
}

// diffMeasures returns a witness for the first disagreement between two
// measurements, or "" when they agree. Counts must match exactly;
// energies to 1e-9 relative (the engines sum identical terms in different
// orders).
func diffMeasures(a, b measure) string {
	const rel = 1e-9
	if a.internal != b.internal {
		return fmt.Sprintf("internal flips %d vs %d", a.internal, b.internal)
	}
	if a.output != b.output {
		return fmt.Sprintf("output flips %d vs %d", a.output, b.output)
	}
	nets := map[string]bool{}
	for n := range a.netTrans {
		nets[n] = true
	}
	for n := range b.netTrans {
		nets[n] = true
	}
	names := make([]string, 0, len(nets))
	for n := range nets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a.netTrans[n] != b.netTrans[n] {
			return fmt.Sprintf("net %s: %d vs %d transitions", n, a.netTrans[n], b.netTrans[n])
		}
	}
	insts := map[string]bool{}
	for g := range a.perGate {
		insts[g] = true
	}
	for g := range b.perGate {
		insts[g] = true
	}
	names = names[:0]
	for g := range insts {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		if !relClose(a.perGate[g], b.perGate[g], rel) {
			return fmt.Sprintf("gate %s: energy %g vs %g", g, a.perGate[g], b.perGate[g])
		}
	}
	if !relClose(a.energy, b.energy, rel) {
		return fmt.Sprintf("energy %g vs %g", a.energy, b.energy)
	}
	return ""
}

// checkEngines runs one shared stimulus through the naive oracle and the
// compiled engines in all three delay modes and demands identical
// measurements: a single-vector sim.Run, then every lane of each
// configured register-block width.
func checkEngines(c *circuit.Circuit, p Profile, seed int64, opts CheckOptions,
	pi map[string]stoch.Signal, fail func(string, string) *Discrepancy) *Discrepancy {
	horizon := stimulusHorizon(p, opts)
	waves, err := sim.GenerateWaveforms(c.Inputs, pi, horizon, rngFor(seed, p.Name, "waves"))
	if err != nil {
		return fail("engines/stimulus", err.Error())
	}
	modes := []struct {
		name string
		mode sim.DelayMode
	}{
		{"zero", sim.ZeroDelay},
		{"unit", sim.UnitDelay},
		{"elmore", sim.ElmoreDelay},
	}
	for _, m := range modes {
		prm := sim.DefaultParams()
		prm.Mode = m.mode
		ref, err := OracleRun(c, waves, horizon, prm)
		if err != nil {
			return fail("engines/"+m.name+"/oracle", err.Error())
		}
		bp, err := sim.Run(c, waves, horizon, prm)
		if err != nil {
			return fail("engines/"+m.name+"/bitparallel", err.Error())
		}
		if w := diffMeasures(measureOf(bp), measureOfOracle(ref)); w != "" {
			return fail("engines/"+m.name+"/bitparallel-vs-oracle", w)
		}
		if d := checkWideLanes(c, m.name, prm, waves, horizon, ref, opts, fail); d != nil {
			return d
		}
	}
	return nil
}

// stimulusHorizon is opts.Horizon, or when zero a horizon sized for
// roughly eight transitions per input at the profile's mean density.
func stimulusHorizon(p Profile, opts CheckOptions) float64 {
	if opts.Horizon > 0 {
		return opts.Horizon
	}
	meanD := (p.DLow + p.DHigh) / 2
	if meanD <= 0 {
		meanD = 2e5
	}
	return 8 / meanD
}

// checkWideLanes replicates the shared stimulus into every lane of each
// configured register-block width and demands that every lane of the
// wide bit-parallel run reproduce the oracle's measurement — a lane that
// drifts under a W-word kernel (strided loads, per-word fire masks, the
// two-level agenda) pins the failure to the wide path, since the
// one-vector run already matched.
func checkWideLanes(c *circuit.Circuit, mode string, prm sim.Params,
	waves map[string]*stoch.Waveform, horizon float64, ref *OracleResult,
	opts CheckOptions, fail func(string, string) *Discrepancy) *Discrepancy {
	if len(opts.LaneWidths) == 0 {
		return nil
	}
	const rel = 1e-9
	run := func(laneWaves []map[string]*stoch.Waveform) (*sim.BitResult, error) {
		if prm.Mode == sim.ZeroDelay {
			prog, err := sim.Compile(c, prm)
			if err != nil {
				return nil, err
			}
			stim, err := stoch.PackWaveforms(c.Inputs, laneWaves, horizon)
			if err != nil {
				return nil, err
			}
			return prog.RunLanes(stim)
		}
		prog, err := sim.CompileTimed(c, prm)
		if err != nil {
			return nil, err
		}
		stim, err := prog.PackTimed(laneWaves, horizon)
		if err != nil {
			return nil, err
		}
		return prog.RunLanes(stim)
	}
	for _, lanes := range opts.LaneWidths {
		check := fmt.Sprintf("engines/%s/wide-%d", mode, lanes)
		laneWaves := make([]map[string]*stoch.Waveform, lanes)
		for i := range laneWaves {
			laneWaves[i] = waves
		}
		br, err := run(laneWaves)
		if err != nil {
			return fail(check, err.Error())
		}
		for l := 0; l < lanes; l++ {
			if br.LaneInternalFlips[l] != ref.InternalFlips {
				return fail(check, fmt.Sprintf("lane %d: internal flips %d vs oracle %d", l, br.LaneInternalFlips[l], ref.InternalFlips))
			}
			if br.LaneOutputFlips[l] != ref.OutputFlips {
				return fail(check, fmt.Sprintf("lane %d: output flips %d vs oracle %d", l, br.LaneOutputFlips[l], ref.OutputFlips))
			}
			if !relClose(br.LaneEnergy[l], ref.Energy, rel) {
				return fail(check, fmt.Sprintf("lane %d: energy %g vs oracle %g", l, br.LaneEnergy[l], ref.Energy))
			}
		}
		for net, want := range ref.NetTransitions {
			row := br.LaneNetTransitions[net]
			for l := 0; l < lanes; l++ {
				if row[l] != want {
					return fail(check, fmt.Sprintf("lane %d net %s: %d vs oracle %d", l, net, row[l], want))
				}
			}
		}
		for net, row := range br.LaneNetTransitions {
			for l := 0; l < lanes; l++ {
				if row[l] != ref.NetTransitions[net] {
					return fail(check, fmt.Sprintf("lane %d net %s: %d vs oracle %d", l, net, row[l], ref.NetTransitions[net]))
				}
			}
		}
	}
	return nil
}

// checkIncremental mutates a copy of the circuit through random
// configuration swaps and an input-statistics change, comparing the
// incremental engine with a from-scratch AnalyzeCircuit after every step.
func checkIncremental(c *circuit.Circuit, p Profile, seed int64, opts CheckOptions,
	pi map[string]stoch.Signal, fail func(string, string) *Discrepancy) *Discrepancy {
	const rel = 1e-9
	prm := core.DefaultParams()
	work := c.Clone()
	inc, err := core.NewIncremental(work, pi, prm)
	if err != nil {
		return fail("incremental/build", err.Error())
	}
	compare := func(step string, pi map[string]stoch.Signal) *Discrepancy {
		full, err := core.AnalyzeCircuit(inc.Circuit(), pi, prm)
		if err != nil {
			return fail("incremental/full", fmt.Sprintf("%s: %v", step, err))
		}
		if !relClose(inc.Power(), full.Power, rel) {
			return fail("incremental", fmt.Sprintf("%s: power %g vs full %g", step, inc.Power(), full.Power))
		}
		if !relClose(inc.InternalPower(), full.InternalPower, rel) {
			return fail("incremental", fmt.Sprintf("%s: internal %g vs full %g", step, inc.InternalPower(), full.InternalPower))
		}
		if !relClose(inc.OutputPower(), full.OutputPower, rel) {
			return fail("incremental", fmt.Sprintf("%s: output %g vs full %g", step, inc.OutputPower(), full.OutputPower))
		}
		snap := inc.Analysis()
		for name, want := range full.PerGate {
			if !relClose(snap.PerGate[name], want, rel) {
				return fail("incremental", fmt.Sprintf("%s: gate %s power %g vs full %g", step, name, snap.PerGate[name], want))
			}
		}
		for net, want := range full.NetStats {
			got, ok := snap.NetStats[net]
			if !ok || !relClose(got.P, want.P, rel) || !relClose(got.D, want.D, rel) {
				return fail("incremental", fmt.Sprintf("%s: net %s stats %v vs full %v", step, net, got, want))
			}
		}
		return nil
	}
	if d := compare("initial", pi); d != nil {
		return d
	}
	rng := rngFor(seed, p.Name, "mutations")
	steps := opts.MutationSteps
	if steps <= 0 {
		steps = 6
	}
	curPI := pi
	for s := 0; s < steps; s++ {
		g := work.Gates[rng.Intn(len(work.Gates))]
		cfgs := g.Cell.AllConfigs()
		cfg := cfgs[rng.Intn(len(cfgs))]
		if err := inc.SetConfig(g.Name, cfg); err != nil {
			return fail("incremental/setconfig", fmt.Sprintf("step %d gate %s: %v", s, g.Name, err))
		}
		if d := compare(fmt.Sprintf("step %d (%s→%s)", s, g.Name, cfg.ConfigKey()), curPI); d != nil {
			return d
		}
		if s == steps/2 {
			curPI = InputStats(work, p, DeriveSeed(seed, "restat"))
			if err := inc.SetInputs(curPI); err != nil {
				return fail("incremental/setinputs", err.Error())
			}
			if d := compare(fmt.Sprintf("step %d (restat)", s), curPI); d != nil {
				return d
			}
		}
	}
	return nil
}

// equivalent verifies functional equality of two circuits — exactly for
// narrow input spaces, on deterministic random vectors otherwise.
func equivalent(a, b *circuit.Circuit, p Profile, seed int64, opts CheckOptions, label string) (bool, string, error) {
	if len(a.Inputs) <= opts.ExactInputLimit {
		return circuit.Equivalent(a, b)
	}
	trials := opts.EquivTrials
	if trials <= 0 {
		trials = 64
	}
	return circuit.EquivalentRandom(a, b, trials, rngFor(seed, p.Name, "equiv", label))
}

// checkOptimize runs the optimizer in several mode/objective pairs and
// verifies the paper's invariants: the reordered circuit computes the
// same function, the report's before/after powers match independent full
// analyses, the objective moved the right way, and the parallel search is
// bit-identical to the serial one. The full-mode pair then comes from
// reorder.BestAndWorst's fused pass, held exactly to the separate
// full-min and full-max reports.
func checkOptimize(c *circuit.Circuit, p Profile, seed int64, opts CheckOptions,
	pi map[string]stoch.Signal, fail func(string, string) *Discrepancy) *Discrepancy {
	const rel = 1e-9
	before, err := core.AnalyzeCircuit(c, pi, core.DefaultParams())
	if err != nil {
		return fail("optimize/analyze", err.Error())
	}
	var fullMin, fullMax *reorder.Report
	variants := []struct {
		name string
		mode reorder.Mode
		obj  reorder.Objective
	}{
		{"full-min", reorder.Full, reorder.Minimize},
		{"full-max", reorder.Full, reorder.Maximize},
		{"input-only-min", reorder.InputOnly, reorder.Minimize},
	}
	for _, v := range variants {
		opt := reorder.DefaultOptions()
		opt.Mode = v.mode
		opt.Objective = v.obj
		opt.Workers = 1
		rep, err := reorder.Optimize(c, pi, opt)
		if err != nil {
			return fail("optimize/"+v.name, err.Error())
		}
		ok, witness, err := equivalent(c, rep.Circuit, p, seed, opts, v.name)
		if err != nil {
			return fail("optimize/"+v.name+"/equiv", err.Error())
		}
		if !ok {
			return fail("optimize/"+v.name+"/equiv", "reordering changed the logic function: "+witness)
		}
		switch v.name {
		case "full-min":
			fullMin = rep
		case "full-max":
			fullMax = rep
		}
		if !relClose(rep.PowerBefore, before.Power, rel) {
			return fail("optimize/"+v.name, fmt.Sprintf("PowerBefore %g vs full analysis %g", rep.PowerBefore, before.Power))
		}
		after, err := core.AnalyzeCircuit(rep.Circuit, pi, core.DefaultParams())
		if err != nil {
			return fail("optimize/"+v.name+"/analyze-after", err.Error())
		}
		if !relClose(rep.PowerAfter, after.Power, rel) {
			return fail("optimize/"+v.name, fmt.Sprintf("PowerAfter %g vs full analysis %g", rep.PowerAfter, after.Power))
		}
		slack := rel * math.Max(math.Abs(rep.PowerBefore), math.Abs(rep.PowerAfter))
		switch v.obj {
		case reorder.Minimize:
			if rep.PowerAfter > rep.PowerBefore+slack {
				return fail("optimize/"+v.name, fmt.Sprintf("objective increased: %g → %g", rep.PowerBefore, rep.PowerAfter))
			}
		case reorder.Maximize:
			if rep.PowerAfter < rep.PowerBefore-slack {
				return fail("optimize/"+v.name, fmt.Sprintf("objective decreased: %g → %g", rep.PowerBefore, rep.PowerAfter))
			}
		}
		// The optimizer must be bit-identical at any worker count.
		opt.Workers = 3
		par, err := reorder.Optimize(c, pi, opt)
		if err != nil {
			return fail("optimize/"+v.name+"/parallel", err.Error())
		}
		if par.GatesChanged != rep.GatesChanged || par.PowerBefore != rep.PowerBefore || par.PowerAfter != rep.PowerAfter {
			return fail("optimize/"+v.name+"/parallel",
				fmt.Sprintf("workers=3 report (%d, %g, %g) differs from serial (%d, %g, %g)",
					par.GatesChanged, par.PowerBefore, par.PowerAfter,
					rep.GatesChanged, rep.PowerBefore, rep.PowerAfter))
		}
	}
	opt := reorder.DefaultOptions()
	opt.Workers = 1
	best, worst, err := reorder.BestAndWorst(c, pi, opt)
	if err != nil {
		return fail("optimize/best-and-worst", err.Error())
	}
	if msg := sameReport(best, fullMin); msg != "" {
		return fail("optimize/best-and-worst/min", msg)
	}
	if msg := sameReport(worst, fullMax); msg != "" {
		return fail("optimize/best-and-worst/max", msg)
	}
	return checkPair(best.Circuit, worst.Circuit, p, seed, opts, pi, fail)
}

// sameReport describes how got differs from want — powers compared
// exactly, configurations by pointer — or returns "" when they agree.
func sameReport(got, want *reorder.Report) string {
	if got.GatesChanged != want.GatesChanged || got.PowerBefore != want.PowerBefore || got.PowerAfter != want.PowerAfter {
		return fmt.Sprintf("report (%d, %g, %g) differs from Optimize's (%d, %g, %g)",
			got.GatesChanged, got.PowerBefore, got.PowerAfter,
			want.GatesChanged, want.PowerBefore, want.PowerAfter)
	}
	for i, g := range got.Circuit.Gates {
		if w := want.Circuit.Gates[i]; g.Cell != w.Cell {
			return fmt.Sprintf("instance %s chose %s, Optimize chose %s", g.Name, g.Cell.ConfigKey(), w.Cell.ConfigKey())
		}
	}
	return ""
}

// checkPair holds the S column's unit-delay measurement of the full-mode
// best/worst pair, which runs both circuits as one fused program, to the
// two circuits' own programs: on one packed block, sim.ReductionVectors'
// ratio must equal the one two CompileTimed + RunEnergy calls give,
// exactly.
func checkPair(best, worst *circuit.Circuit, p Profile, seed int64, opts CheckOptions,
	pi map[string]stoch.Signal, fail func(string, string) *Discrepancy) *Discrepancy {
	const vectors = 80 // two words, the second partly filled
	horizon := stimulusHorizon(p, opts)
	laneWaves, err := sim.GenerateLaneWaveforms(best.Inputs, pi, horizon, vectors, rngFor(seed, p.Name, "pair"))
	if err != nil {
		return fail("optimize/pair/stimulus", err.Error())
	}
	prm := sim.DefaultParams()
	pb, err := sim.CompileTimed(best, prm)
	if err != nil {
		return fail("optimize/pair/compile", err.Error())
	}
	pw, err := sim.CompileTimed(worst, prm)
	if err != nil {
		return fail("optimize/pair/compile", err.Error())
	}
	stim, err := stoch.PackTimedWaveforms(best.Inputs, laneWaves, horizon, pb.Tick(), max(pb.SettleTicks(), pw.SettleTicks()))
	if err != nil {
		return fail("optimize/pair/pack", err.Error())
	}
	eb, err := pb.RunEnergy(stim)
	if err != nil {
		return fail("optimize/pair/best", err.Error())
	}
	ew, err := pw.RunEnergy(stim)
	if err != nil {
		return fail("optimize/pair/worst", err.Error())
	}
	// The same seed redraws laneWaves through the scenario-A drawer.
	draw := sim.ExponentialDrawer(best.Inputs, pi, horizon, rngFor(seed, p.Name, "pair"))
	red, err := sim.ReductionVectors(best, worst, draw, vectors, vectors, horizon, prm)
	if err != nil {
		return fail("optimize/pair", err.Error())
	}
	want := 0.0
	if ew != 0 {
		want = (ew - eb) / ew
	}
	if red != want {
		return fail("optimize/pair", fmt.Sprintf("fused reduction %v, two programs (%v - %v)/%v = %v", red, ew, eb, ew, want))
	}
	return nil
}
