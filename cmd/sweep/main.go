// Command sweep runs the concurrent experiment engine: every requested
// benchmark × scenario × mode × seed cell, fanned across a bounded worker
// pool, with per-job JSON-lines streaming and an aggregate table.
//
// Examples:
//
//	sweep                                     # all Table 3 benchmarks, scenarios A+B, full reordering
//	sweep -bench cm138a,cu,alu2 -modes full,input-only -seeds 1,2,3
//	sweep -scenarios A -nosim -workers 4 -jsonl results.jsonl
//	sweep -bench rca8 -modes full,delay-neutral -v
//	sweep -store results.db                   # journal results; kill -9 it...
//	sweep -store results.db -resume           # ...and pick up where it died
//	sweep -coordinator http://host:7070       # join a sweepd coordinator as a worker
//
// Results are deterministic for a given flag set regardless of -workers.
// Ctrl-C cancels queued jobs; finished rows already streamed stand.
// With -store, finished jobs also persist in a crash-safe journal, and
// -resume replays them instead of recomputing — the combined output is
// identical (modulo timing fields) to an uninterrupted run. See
// docs/resume.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bench     = flag.String("bench", "", "comma-separated benchmarks (default: all 39 of Table 3)")
		scenarios = flag.String("scenarios", "A,B", "comma-separated input scenarios")
		modes     = flag.String("modes", "full", "comma-separated modes: full,input-only,delay-rule,delay-neutral")
		seeds     = flag.String("seeds", "", "comma-separated replicate seeds (default: 1996)")
		workers   = flag.Int("workers", 0, "worker pool size (default: GOMAXPROCS)")
		optWork   = flag.Int("opt-workers", 0, "per-job optimizer candidate-search workers (default: 1, serial; the job pool owns the parallelism)")
		nosim     = flag.Bool("nosim", false, "skip switch-level simulation (S column reads 0)")
		jsonl     = flag.String("jsonl", "", "stream one JSON object per finished job to this file ('-' for stdout)")
		horizon   = flag.Float64("horizon", 0, "scenario A simulation horizon in seconds (0 = default)")
		cycles    = flag.Int("cycles", 0, "scenario B simulated cycles (0 = default)")
		delayMode = flag.String("delay", "unit", "simulation delay model: unit, elmore or zero")
		tick      = flag.Float64("tick", 0, "timed-simulation tick in seconds (0 = auto: the unit delay, or the fastest Elmore gate delay / 4)")
		vectors   = flag.Int("vectors", 0, "total Monte Carlo vectors for S-column simulation (0 = one register block of -lanes)")
		lanes     = flag.Int("lanes", 0, "register-block lane width, 1..512; 64 = one machine word, 256/512 = wide kernels (0 = 64)")
		verbose   = flag.Bool("v", false, "print the per-job table, not only the aggregates")
		list      = flag.Bool("list", false, "print the planned jobs and exit")
		storeDir  = flag.String("store", "", "journal finished jobs into this content-addressed result store directory")
		resume    = flag.Bool("resume", false, "replay jobs already in -store instead of recomputing them")
		retries   = flag.Int("retries", 2, "per-job retry budget for transient failures")
		backoff   = flag.Duration("retry-backoff", 0, "base backoff between retries (default 50ms, doubled per attempt)")
		faultSpec = flag.String("fault-spec", "", "TESTING ONLY: deterministic fault-injection spec, e.g. error=0.2,panic=0.1,torn=0.05")
		faultSeed = flag.Int64("fault-seed", 1, "TESTING ONLY: seed for -fault-spec")

		coordinator = flag.String("coordinator", "", "join a sweepd coordinator at this URL as a worker instead of running a local sweep; job-defining flags are ignored (the coordinator's config is authoritative)")
		workerID    = flag.String("worker-id", "", "worker name reported to the coordinator (default: host-pid)")
		reconnect   = flag.Duration("reconnect-timeout", 0, "keep probing an unreachable coordinator for this long before giving up (0 = 60s default, negative = exit on first outage)")
	)
	flag.Parse()

	if *coordinator != "" {
		return runWorkerMode(*coordinator, *workerID, *storeDir, *retries, *backoff, *reconnect, *faultSpec, *faultSeed)
	}

	opt := sweep.DefaultOptions()
	if err := cli.SweepMatrix(&opt, *bench, *scenarios, *modes, *seeds, *vectors, *lanes); err != nil {
		return err
	}
	if *workers > 0 {
		opt.Workers = *workers
	}
	if *optWork < 0 {
		return fmt.Errorf("-opt-workers %d is negative", *optWork)
	}
	opt.OptimizerWorkers = *optWork
	opt.Simulate = !*nosim
	if *horizon > 0 {
		opt.Expt.HorizonA = *horizon
	}
	if *cycles > 0 {
		opt.Expt.CyclesB = *cycles
	}
	mode, err := sim.ParseDelayMode(*delayMode)
	if err != nil {
		return fmt.Errorf("-delay: %w", err)
	}
	opt.Expt.Sim.Mode = mode
	if *tick < 0 {
		return fmt.Errorf("-tick %g is negative", *tick)
	}
	if *tick > 0 && opt.Expt.Sim.Mode == sim.ZeroDelay {
		return fmt.Errorf("-tick applies to timed simulation: pass -delay unit or elmore")
	}
	opt.Expt.Sim.Tick = *tick

	if *retries < 0 {
		return fmt.Errorf("-retries %d is negative", *retries)
	}
	opt.Retries = *retries
	opt.RetryBackoff = *backoff
	plan, err := faults.Parse(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	opt.Faults = plan
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume requires -store")
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Faults: plan})
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
		defer st.Close()
		if tb := st.Stats().DiscardedBytes; tb > 0 {
			fmt.Fprintf(os.Stderr, "sweep: store recovered a torn tail (%d bytes discarded)\n", tb)
		}
		opt.Store = st
		opt.Resume = *resume
	}

	jobs := sweep.Jobs(opt)
	if *list {
		for _, j := range jobs {
			fmt.Printf("%4d  %-10s sc=%s mode=%-13s seed=%d\n", j.Index, j.Benchmark, j.Scenario, j.Mode, j.Seed)
		}
		return nil
	}
	for _, j := range jobs {
		if _, ok := mcnc.Find(j.Benchmark); !ok {
			if _, embedded := mcnc.EmbeddedSource(j.Benchmark); !embedded {
				return fmt.Errorf("unknown benchmark %q", j.Benchmark)
			}
		}
	}

	if *jsonl != "" {
		if *jsonl == "-" {
			opt.Stream = os.Stdout
		} else {
			f, err := os.Create(*jsonl)
			if err != nil {
				return err
			}
			defer f.Close()
			opt.Stream = f
		}
	}

	done := 0
	opt.OnResult = func(r sweep.Result) {
		done++
		status := ""
		if r.Err != "" {
			status = "  ERROR: " + r.Err
		}
		fmt.Fprintf(os.Stderr, "\r[%d/%d] %s sc=%s %s%s", done, len(jobs), r.Benchmark, r.Scenario, r.Mode, status)
		if r.Err != "" {
			fmt.Fprintln(os.Stderr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "sweep: %d jobs (%d benchmarks × %d scenarios × %d modes × %d seeds), %d workers\n",
		len(jobs), len(jobs)/(len(opt.Scenarios)*len(opt.Modes)*max(1, len(opt.Seeds))),
		len(opt.Scenarios), len(opt.Modes), max(1, len(opt.Seeds)), opt.Workers)
	s, err := sweep.Run(ctx, opt)
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Println(s.Table())
	}
	fmt.Printf("aggregates (M: model reduction, S: simulated reduction, D: delay increase)\n\n")
	fmt.Print(s.AggregateTable())
	if s.Resumed > 0 || s.Retried > 0 || s.StoreErrors > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d resumed from store, %d retries, %d store errors\n",
			s.Resumed, s.Retried, s.StoreErrors)
	}
	if s.Failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d jobs failed:\n", s.Failed, len(s.Results))
		for _, f := range s.Failures {
			fmt.Fprintf(os.Stderr, "  job %d %s sc=%s mode=%s seed=%d: %s after %d attempt(s): %s\n",
				f.Index, f.Benchmark, f.Scenario, f.Mode, f.Seed, f.Kind, f.Attempts, f.Error)
		}
		return fmt.Errorf("%d of %d jobs failed", s.Failed, len(s.Results))
	}
	p := expt.Paper()
	for _, a := range s.Aggregates {
		if a.Scenario == expt.ScenarioA.String() && a.Mode == reorder.Full.String() {
			fmt.Printf("\npaper (scenario A, full): M %.0f%%, S %.0f%%, D +%.0f%%\n",
				100*p.ModelRedA, 100*p.SimRedA, 100*p.DelayIncA)
		}
	}
	return nil
}

// runWorkerMode joins a distributed sweep: lease, compute, upload,
// repeat until the coordinator reports the sweep complete. -store, if
// given, is this worker's local journal — a restarted worker
// re-delivers journaled results instead of recomputing them.
func runWorkerMode(url, id, storeDir string, retries int, backoff, reconnect time.Duration, faultSpec string, faultSeed int64) error {
	plan, err := faults.Parse(faultSpec, faultSeed)
	if err != nil {
		return err
	}
	cfg := dist.WorkerConfig{
		Coordinator:      url,
		ID:               id,
		JobRetries:       retries,
		JobRetryBackoff:  backoff,
		ReconnectTimeout: reconnect,
		Faults:           plan,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
		},
	}
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{Faults: plan})
		if err != nil {
			return fmt.Errorf("opening local result store: %w", err)
		}
		defer st.Close()
		cfg.LocalStore = st
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stats, err := dist.RunWorker(ctx, cfg)
	fmt.Fprintf(os.Stderr, "sweep: worker done: %d leases (%d lost), %d computed, %d local hits, %d uploaded, %d failed, %d retries\n",
		stats.Leases, stats.LeasesLost, stats.Computed, stats.LocalHits, stats.Uploaded, stats.Failed, stats.Retried)
	if stats.Reconnects > 0 || stats.Spilled > 0 {
		fmt.Fprintf(os.Stderr, "sweep: worker outages: %d reconnects, %d results spilled, %d redelivered\n",
			stats.Reconnects, stats.Spilled, stats.Redelivered)
	}
	return err
}
