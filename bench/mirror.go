package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The traced pass re-executes sweep jobs from the public calls a sweep
// worker makes, in the same order, with a span around each call. It is a
// mirror of the sweep package's per-job pipeline, not a second
// implementation: its results must hash to the digest of the untraced
// sweep.Run over the same jobs, or the trace is rejected.

// mirrorRound re-executes one round on the workload's worker count. For a
// journaled workload every result is put into a fresh store, which is then
// reopened and read back as a resume pass would.
func mirrorRound(tr *tracer, round sweepRound, journal bool, tmp string, firstJob int) (string, error) {
	opt := round.opt
	jobs := sweep.Jobs(opt)
	results := make([]sweep.Result, len(jobs))
	keys := make([]string, len(jobs))
	var st *store.Store
	var dir string
	if journal {
		for i, j := range jobs {
			keys[i] = j.StoreKey(opt)
		}
		var err error
		if dir, err = os.MkdirTemp(tmp, "mirror-"); err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return "", err
		}
	}

	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id := firstJob + i
				results[i], errs[i] = mirrorJob(tr, id, jobs[i], opt)
				if errs[i] == nil && st != nil {
					errs[i] = tracedPut(tr, id, st, keys[i], results[i])
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if st != nil {
				st.Close()
			}
			return "", fmt.Errorf("job %d: %w", jobs[i].Index, err)
		}
	}
	digest := sweepDigest(results)
	if st == nil {
		return digest, nil
	}
	if err := st.Close(); err != nil {
		return "", err
	}
	if err := tracedResume(tr, firstJob, dir, keys, digest); err != nil {
		return "", err
	}
	return digest, nil
}

// mirrorJob is one job: load through the shared cache, input statistics,
// best and worst reordering, the simulated reduction when the sweep
// simulates, and the delay increase of the best circuit.
func mirrorJob(tr *tracer, id int, job sweep.Job, opt sweep.Options) (res sweep.Result, err error) {
	root := tr.begin(id, 0, "sweep", "job")
	start := time.Now()
	defer func() {
		res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		root.end()
	}()
	res = sweep.Result{
		Index:     job.Index,
		Benchmark: job.Benchmark,
		Scenario:  job.Scenario.String(),
		Mode:      job.Mode.String(),
		Seed:      job.Seed,
	}
	call := func(layer, op string, f func()) {
		sp := tr.begin(id, root.id(), layer, op)
		f()
		sp.end()
	}

	var c *circuit.Circuit
	call("mcnc", "load", func() {
		c, err = opt.Cache.Get(sweep.CircuitKey(job.Benchmark), func() (*circuit.Circuit, error) {
			return mcnc.Load(job.Benchmark, opt.Expt.Lib)
		})
	})
	if err != nil {
		return res, err
	}
	res.Gates = len(c.Gates)

	eo := opt.Expt
	eo.Seed = job.EffectiveSeed()
	var pi map[string]stoch.Signal
	call("expt", "input_stats", func() { pi = expt.InputStats(c, job.Scenario, eo) })

	ro := reorder.DefaultOptions()
	ro.Mode = job.Mode
	ro.Params = eo.Params
	ro.Delay = eo.Delay
	ro.Workers = 1
	var best, worst *reorder.Report
	ro.Objective = reorder.Minimize
	call("reorder", "optimize", func() { best, err = reorder.Optimize(c, pi, ro) })
	if err != nil {
		return res, err
	}
	ro.Objective = reorder.Maximize
	call("reorder", "optimize", func() { worst, err = reorder.Optimize(c, pi, ro) })
	if err != nil {
		return res, err
	}
	tr.count("reorder.optimize.gates", 2*len(c.Gates))
	res.Changed = best.GatesChanged
	res.PowerBest = best.PowerAfter
	res.PowerWorst = worst.PowerAfter
	if worst.PowerAfter > 0 {
		res.ModelRed = (worst.PowerAfter - best.PowerAfter) / worst.PowerAfter
	}

	if opt.Simulate {
		if res.SimRed, err = mirrorSimReduction(tr, id, root.id(), c, best.Circuit, worst.Circuit, pi, job.Scenario, eo); err != nil {
			return res, err
		}
	}
	call("delay", "increase", func() { res.DelayInc, err = expt.DelayIncrease(c, best.Circuit, eo.Delay) })
	return res, err
}

// mirrorSimReduction is expt.SimReduction on the timed bit-parallel
// engine, with the body of sim.ReductionVectors unrolled so compile, draw,
// pack and run are timed apart: both circuits compiled on the finer of
// their tick grids, then per pack the stimulus drawn vector by vector,
// packed once, and run on the best and the worst circuit.
func mirrorSimReduction(tr *tracer, id int, parent int64, c, best, worst *circuit.Circuit, pi map[string]stoch.Signal, sc expt.Scenario, eo expt.Options) (float64, error) {
	prm := eo.Sim
	if prm.Engine != sim.BitParallel || prm.Mode == sim.ZeroDelay {
		return 0, fmt.Errorf("the traced pass mirrors only the timed bit-parallel engine")
	}
	rng := rand.New(rand.NewSource(eo.Seed))
	sigs, horizon := pi, eo.HorizonA
	if sc == expt.ScenarioB {
		sigs = make(map[string]stoch.Signal, len(pi))
		for net, s := range pi {
			sigs[net] = stoch.Signal{P: s.P, D: s.D * eo.PeriodB}
		}
		horizon = float64(eo.CyclesB) * eo.PeriodB
	}
	draw := func() (map[string]*stoch.Waveform, error) {
		if sc == expt.ScenarioB {
			return sim.GenerateClockedWaveforms(c.Inputs, sigs, eo.CyclesB, eo.PeriodB, rng)
		}
		return sim.GenerateWaveforms(c.Inputs, sigs, eo.HorizonA, rng)
	}
	lanes := eo.SimLanes
	if lanes == 0 {
		lanes = stoch.MaxLanes
	}
	vectors := eo.SimVectors
	if vectors == 0 {
		vectors = lanes
	}

	sp := tr.begin(id, parent, "sim", "compile")
	pb, pw, err := compilePair(best, worst, prm)
	sp.end()
	if err != nil {
		return 0, err
	}
	guard := max(pb.SettleTicks(), pw.SettleTicks())

	var eb, ew float64
	laneWaves := make([]map[string]*stoch.Waveform, 0, lanes)
	for done := 0; done < vectors; {
		n := min(lanes, vectors-done)
		laneWaves = laneWaves[:0]
		sp = tr.begin(id, parent, "sim", "draw")
		for l := 0; l < n && err == nil; l++ {
			var w map[string]*stoch.Waveform
			if w, err = draw(); err == nil {
				laneWaves = append(laneWaves, w)
			}
		}
		sp.end()
		if err != nil {
			return 0, err
		}
		var stim *stoch.TimedStimulus
		sp = tr.begin(id, parent, "stoch", "pack")
		stim, err = stoch.PackTimedWaveforms(best.Inputs, laneWaves, horizon, pb.Tick(), guard)
		sp.end()
		if err != nil {
			return 0, err
		}
		tr.count("stoch.pack.transitions", toggles(stim))
		tr.count("sim.run.vectors", 2*n)
		run := func(p *sim.TimedProgram) (float64, error) {
			sp := tr.begin(id, parent, "sim", "run")
			defer sp.end()
			return p.RunEnergy(stim)
		}
		ceb, err := run(pb)
		if err != nil {
			return 0, fmt.Errorf("best circuit: %w", err)
		}
		cew, err := run(pw)
		if err != nil {
			return 0, fmt.Errorf("worst circuit: %w", err)
		}
		eb += ceb
		ew += cew
		done += n
	}
	if ew == 0 {
		return 0, nil
	}
	return (ew - eb) / ew, nil
}

// compilePair compiles both circuits onto one tick grid, the finer of the
// two automatic resolutions unless prm pins one.
func compilePair(best, worst *circuit.Circuit, prm sim.Params) (*sim.TimedProgram, *sim.TimedProgram, error) {
	if prm.Tick == 0 {
		tb, _, _, err := sim.TickPlan(best, prm)
		if err != nil {
			return nil, nil, fmt.Errorf("best circuit: %w", err)
		}
		tw, _, _, err := sim.TickPlan(worst, prm)
		if err != nil {
			return nil, nil, fmt.Errorf("worst circuit: %w", err)
		}
		prm.Tick = min(tb, tw)
	}
	pb, err := sim.CompileTimed(best, prm)
	if err != nil {
		return nil, nil, fmt.Errorf("best circuit: %w", err)
	}
	pw, err := sim.CompileTimed(worst, prm)
	if err != nil {
		return nil, nil, fmt.Errorf("worst circuit: %w", err)
	}
	return pb, pw, nil
}

// toggles counts the lane transitions a packed stimulus carries.
func toggles(stim *stoch.TimedStimulus) int {
	n := 0
	for _, ts := range stim.Toggles {
		for _, t := range ts {
			n += bits.OnesCount64(t.Lanes)
		}
	}
	return n
}

// tracedPut journals one result as a sweep worker does after a job.
func tracedPut(tr *tracer, id int, st *store.Store, key string, r sweep.Result) error {
	sp := tr.begin(id, 0, "store", "put")
	defer sp.end()
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	tr.count("store.put.bytes", len(data))
	return st.Put(key, data)
}

// tracedResume reopens the journal and reads every result back, as a
// resumed sweep does before dispatching work; the decoded results must
// reproduce the computed digest.
func tracedResume(tr *tracer, firstJob int, dir string, keys []string, digest string) error {
	sp := tr.begin(firstJob, 0, "store", "open")
	st, err := store.Open(dir, store.Options{})
	sp.end()
	if err != nil {
		return err
	}
	defer st.Close()
	results := make([]sweep.Result, len(keys))
	for i, k := range keys {
		sp := tr.begin(firstJob+i, 0, "store", "get")
		data, ok := st.Get(k)
		if ok {
			err = json.Unmarshal(data, &results[i])
		}
		sp.end()
		if !ok || err != nil {
			return fmt.Errorf("journaled result %d unreadable (present %t): %v", i, ok, err)
		}
	}
	if d := sweepDigest(results); d != digest {
		return fmt.Errorf("journaled results digest %s differs from computed %s", d, digest)
	}
	return nil
}
