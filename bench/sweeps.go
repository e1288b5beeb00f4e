package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/stoch"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepWorkload is one batch workload: rounds of sweep.Run over a fixed
// job matrix, each round with fresh replicate seeds derived from the run
// seed, until the run has lasted about its seconds. Every round has the
// same mix, so throughput does not depend on how many rounds fit.
type sweepWorkload struct {
	name      string
	benches   []string
	scenarios []expt.Scenario
	modes     []reorder.Mode
	seeds     int // replicate seeds per round
	simulate  bool
	horizonA  float64 // scenario-A simulated seconds (0: paper default)
	cyclesB   int     // scenario-B simulated cycles (0: paper default)
	journal   bool    // journal to a fresh store, then resume from it
}

// The three sweep workloads. sweep-a-unit and sweep-b-unit simulate a
// tenth of the paper's default horizon (5e-4 s, 2000 cycles): engine and
// packing cost scale with the horizon, so their shares of a job keep the
// paper job's order, and one run fits the 100+ jobs a p90 needs.
var (
	simBenches = []string{"alu2", "f51m", "ttt2", "cm162a", "cc", "c8"}

	sweepAUnit = sweepWorkload{
		name: "sweep-a-unit", benches: simBenches,
		scenarios: []expt.Scenario{expt.ScenarioA}, modes: []reorder.Mode{reorder.Full},
		seeds: 4, simulate: true, horizonA: 5e-5,
	}
	sweepBUnit = sweepWorkload{
		name: "sweep-b-unit", benches: simBenches,
		scenarios: []expt.Scenario{expt.ScenarioB}, modes: []reorder.Mode{reorder.Full},
		seeds: 4, simulate: true, cyclesB: 200,
	}
	sweepModel = sweepWorkload{
		name: "sweep-model", benches: mcnc.Names(),
		scenarios: []expt.Scenario{expt.ScenarioA, expt.ScenarioB},
		modes:     []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral},
		seeds:     1, journal: true,
	}
)

// roundSeeds derives the replicate seeds of one round from the run seed.
func (w *sweepWorkload) roundSeeds(seed int64, round int) []int64 {
	out := make([]int64, w.seeds)
	for i := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%d|%d", w.name, seed, round, i)
		out[i] = int64(h.Sum64() >> 1)
	}
	return out
}

// options is the sweep one round runs.
func (w *sweepWorkload) options(cc *sweep.CircuitCache, seeds []int64) sweep.Options {
	opt := sweep.DefaultOptions()
	opt.Benchmarks = w.benches
	opt.Scenarios = w.scenarios
	opt.Modes = w.modes
	opt.Seeds = seeds
	opt.Workers = workers
	opt.Simulate = w.simulate
	if w.horizonA > 0 {
		opt.Expt.HorizonA = w.horizonA
	}
	if w.cyclesB > 0 {
		opt.Expt.CyclesB = w.cyclesB
	}
	opt.Cache = cc
	return opt
}

// sweepEnv is the state a sweep workload sets up before its first job.
type sweepEnv struct {
	cc    *sweep.CircuitCache
	gates map[string]int // mapped gate count per benchmark
}

// setup is what a sweep user pays before the first job: the cell library
// (built at package init), every benchmark parsed or synthesized and
// technology-mapped into a shared Options.Cache, and the optimizer's
// process-wide caches filled (see warmOptimizer). With a tracer the calls
// are recorded as spans.
func (w *sweepWorkload) setup(tr *tracer) (*sweepEnv, error) {
	env := &sweepEnv{cc: sweep.NewCircuitCache(0), gates: map[string]int{}}
	lib := expt.DefaultOptions().Lib
	for _, b := range w.benches {
		sp := tr.begin(-1, 0, "mcnc", "load")
		c, err := env.cc.Get(sweep.CircuitKey(b), func() (*circuit.Circuit, error) { return mcnc.Load(b, lib) })
		sp.end()
		if err != nil {
			return nil, err
		}
		env.gates[b] = len(c.Gates)
	}
	sp := tr.begin(-1, 0, "core", "warm")
	defer sp.end()
	return env, warmOptimizer(lib)
}

// warmOptimizer fills the gate-configuration templates internal/core
// keeps for the whole process, for every configuration of every cell.
// Left to fill lazily, they make a process's first few hundred jobs up to
// a fifth slower than the rest, and a run's numbers would depend on how
// many rounds it fits.
func warmOptimizer(lib *library.Library) error {
	prm := core.DefaultParams()
	for _, cell := range lib.Cells() {
		in := make([]stoch.Signal, len(cell.Inputs))
		for i := range in {
			in[i] = stoch.Signal{P: 0.5, D: 1e5}
		}
		if _, err := core.AnalyzeConfigs(cell.Proto, in, prm.OutputLoad(1), prm); err != nil {
			return fmt.Errorf("warming %s: %w", cell.Name, err)
		}
	}
	return nil
}

// sweepRound is one finished round.
type sweepRound struct {
	opt        sweep.Options
	results    []sweep.Result
	done       []time.Time // when each job finished, by index
	digest     string
	start, end time.Time
}

// runRound executes one round the way a user would: one sweep.Run, and
// for a journaled workload a store in a fresh directory, closed, reopened
// and resumed from, as after a crash. The resume pass must replay every
// job and reproduce the computed results.
func (w *sweepWorkload) runRound(ctx context.Context, opt sweep.Options, tmp string) (sweepRound, error) {
	start := time.Now()
	done := make([]time.Time, len(sweep.Jobs(opt)))
	opt.OnResult = func(r sweep.Result) { done[r.Index] = time.Now() }
	var dir string
	if w.journal {
		d, err := os.MkdirTemp(tmp, "store-")
		if err != nil {
			return sweepRound{}, err
		}
		dir = d
		defer os.RemoveAll(dir)
		if opt.Store, err = store.Open(dir, store.Options{}); err != nil {
			return sweepRound{}, err
		}
	}
	sum, err := sweep.Run(ctx, opt)
	if opt.Store != nil {
		if cerr := opt.Store.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing store: %w", cerr)
		}
	}
	if err != nil {
		return sweepRound{}, err
	}
	if sum.StoreErrors > 0 {
		return sweepRound{}, fmt.Errorf("%d results failed to journal", sum.StoreErrors)
	}
	opt.OnResult = nil
	round := sweepRound{opt: opt, results: sum.Results, done: done, digest: sweepDigest(sum.Results), start: start}
	if w.journal {
		if err := resumeCheck(ctx, opt, dir, round.digest); err != nil {
			return sweepRound{}, err
		}
	}
	round.end = time.Now()
	return round, nil
}

// resumeCheck reopens the journal in dir and resumes the same sweep: every
// job must be replayed, none recomputed, with identical results.
func resumeCheck(ctx context.Context, opt sweep.Options, dir, digest string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	opt.Store, opt.Resume = st, true
	sum, err := sweep.Run(ctx, opt)
	if cerr := st.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing store: %w", cerr)
	}
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if sum.Resumed != len(sum.Results) {
		return fmt.Errorf("resume replayed %d of %d jobs", sum.Resumed, len(sum.Results))
	}
	if d := sweepDigest(sum.Results); d != digest {
		return fmt.Errorf("resumed results digest %s differs from computed %s", d, digest)
	}
	return nil
}

// checkResults applies the invariants every job of any seed must satisfy
// and returns one message per violation.
func checkResults(rs []sweep.Result, gates map[string]int, simulate bool) []string {
	var bad []string
	for _, r := range rs {
		fail := func(format string, args ...any) {
			bad = append(bad, fmt.Sprintf("job %d (%s %s %s seed %d): %s", r.Index, r.Benchmark, r.Scenario, r.Mode, r.Seed, fmt.Sprintf(format, args...)))
		}
		if r.Err != "" {
			fail("failed: %s", r.Err)
			continue
		}
		if r.Gates != gates[r.Benchmark] {
			fail("gates %d, circuit has %d", r.Gates, gates[r.Benchmark])
		}
		if !(r.PowerBest > 0 && r.PowerBest <= r.PowerWorst) {
			fail("power best %g worst %g", r.PowerBest, r.PowerWorst)
		}
		if !(r.ModelRed >= 0 && r.ModelRed < 1) {
			fail("model reduction %g outside [0,1)", r.ModelRed)
		}
		if simulate && !(math.Abs(r.SimRed) < 1) || !simulate && r.SimRed != 0 {
			fail("simulated reduction %g", r.SimRed)
		}
		if math.IsNaN(r.DelayInc) || math.IsInf(r.DelayInc, 0) {
			fail("delay increase %g", r.DelayInc)
		}
	}
	return bad
}

// sweepRun is the measured part of one sweep workload run.
type sweepRun struct {
	rounds []sweepRound
	wall   time.Duration // Σ round walls
	alloc  uint64        // bytes allocated on the Go heap
	jobs   int
	failed int
	bad    []string
}

// measure runs rounds until about seconds have passed.
func (w *sweepWorkload) measure(ctx context.Context, env *sweepEnv, seed int64, seconds float64, tmp string) (*sweepRun, error) {
	run := &sweepRun{}
	a := heapAllocs()
	defer func() { run.alloc = heapAllocs() - a }()
	// Start another round while at least half of one still fits.
	var last time.Duration
	for r := 0; r == 0 || (run.wall+last/2).Seconds() < seconds; r++ {
		round, err := w.runRound(ctx, w.options(env.cc, w.roundSeeds(seed, r)), tmp)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		run.rounds = append(run.rounds, round)
		last = round.end.Sub(round.start)
		run.wall += last
		run.jobs += len(round.results)
		for _, res := range round.results {
			if res.Err != "" {
				run.failed++
			}
		}
		run.bad = append(run.bad, checkResults(round.results, env.gates, w.simulate)...)
	}
	return run, nil
}

// net is the run's measured time with its steal removed, round by round.
func (run *sweepRun) net(clock *stealClock) time.Duration {
	var d time.Duration
	for _, round := range run.rounds {
		d += clock.net(round.start, round.end)
	}
	return d
}

// endToEnd computes the sweep's end-to-end metrics from an untraced run,
// every time net of steal (see stealClock), each job's by the steal over
// its own span.
func (run *sweepRun) endToEnd(res *outcome, clock *stealClock) error {
	var lat []float64
	for _, round := range run.rounds {
		for i, r := range round.results {
			end := round.done[i]
			lat = append(lat, r.ElapsedMS*clock.ran(end.Add(-time.Duration(r.ElapsedMS*float64(time.Millisecond))), end))
		}
	}
	res.set("throughput_per_s", float64(run.jobs)/run.net(clock).Seconds(), run.jobs)
	res.set("alloc_mb_per_op", float64(run.alloc)/float64(run.jobs)/(1<<20), run.jobs)
	if err := res.setLatency(lat); err != nil {
		return err
	}
	return nil
}

// busyPct is Σ job time ÷ (workers × wall), in percent.
func (run *sweepRun) busyPct() float64 {
	var busy float64
	for _, round := range run.rounds {
		for _, r := range round.results {
			busy += r.ElapsedMS
		}
	}
	return 100 * busy / (float64(workers) * float64(run.wall.Milliseconds()))
}

// tmpDir is the per-run scratch directory inside the output directory.
func tmpDir(out string) (string, error) {
	dir := filepath.Join(out, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
