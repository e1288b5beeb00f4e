// Command sweepd coordinates a distributed sweep: it enumerates the
// benchmark × scenario × mode × seed job matrix, hands out bounded job
// ranges to `sweep -coordinator` workers under TTL leases renewed by
// heartbeat, and merges uploaded results idempotently into a durable
// content-addressed journal. Workers can crash, restart, or go silent:
// expired leases are reassigned, duplicate executions dedup on merge,
// and the final journal is byte-identical (modulo timing fields) to an
// uninterrupted single-process `sweep -store` run.
//
// Examples:
//
//	sweepd -store results.db                        # all Table 3 benchmarks, scenarios A+B
//	sweepd -store results.db -bench c17,rca4 -seeds 1,2 -lease-ttl 15s -chunk 4
//	sweep  -coordinator http://host:7070            # on each worker machine
//	curl host:7070/dist/v1/status
//	curl host:7070/metrics
//
// sweepd exits 0 once every job is done (and prints the aggregate
// table), or keeps serving with -linger so late workers can still
// deliver and progress can be scraped. A restarted sweepd over the same
// -store resumes: journaled results count as done before any lease is
// granted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":7070", "listen address")
		storeDir  = flag.String("store", "", "journal merged results into this content-addressed store directory (required)")
		bench     = flag.String("bench", "", "comma-separated benchmarks (default: all 39 of Table 3)")
		scenarios = flag.String("scenarios", "A,B", "comma-separated input scenarios")
		modes     = flag.String("modes", "full", "comma-separated modes: full,input-only,delay-rule,delay-neutral")
		seeds     = flag.String("seeds", "", "comma-separated replicate seeds (default: 1996)")
		nosim     = flag.Bool("nosim", false, "skip switch-level simulation (S column reads 0)")
		vectors   = flag.Int("vectors", 0, "total Monte Carlo vectors per job for bit-parallel simulation (0 = one register block of -lanes)")
		lanes     = flag.Int("lanes", 0, "bit-parallel register-block lane width, 1..512; part of the sweep identity, so workers inherit it from the wire config (0 = 64)")
		leaseTTL  = flag.Duration("lease-ttl", dist.DefaultLeaseTTL, "lease expiry without a heartbeat; a dead worker's jobs are reassigned after this")
		chunk     = flag.Int("chunk", dist.DefaultChunkSize, "jobs per lease")
		linger    = flag.Bool("linger", false, "keep serving after the sweep completes instead of exiting")
		quarAfter = flag.Int("quarantine-after", 0, "quarantine a job after this many lease failures across distinct workers (0 = default 3, negative = never quarantine)")
		specFact  = flag.Float64("speculate-factor", 0, "re-grant a straggling lease's jobs once its age exceeds this multiple of the p95 lease duration (0 = default 4, negative = never speculate)")
		jsonl     = flag.String("jsonl", "", "write the completed sweep as one JSON object per job to this file ('-' for stdout)")
		verbose   = flag.Bool("v", false, "print the per-job table at completion, not only the aggregates")
		faultSpec = flag.String("fault-spec", "", "TESTING ONLY: deterministic fault-injection spec for the dist/merge site, e.g. error=0.2,torn=0.1")
		faultSeed = flag.Int64("fault-seed", 1, "TESTING ONLY: seed for -fault-spec")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required: the coordinator owns the durable journal")
	}

	opt := sweep.DefaultOptions()
	if err := cli.SweepMatrix(&opt, *bench, *scenarios, *modes, *seeds, *vectors, *lanes); err != nil {
		return err
	}
	opt.Simulate = !*nosim

	plan, err := faults.Parse(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	st, err := store.Open(*storeDir, store.Options{Faults: plan})
	if err != nil {
		return fmt.Errorf("opening result store: %w", err)
	}
	defer st.Close()
	stats := st.Stats()
	log.Printf("sweepd: result store %s: %d records, %d segments (torn tail: %d bytes discarded)",
		*storeDir, stats.Records, stats.Segments, stats.DiscardedBytes)

	// The coordinator's own decisions (leases, strikes, quarantines) are
	// journaled beside the results so a restarted sweepd rebuilds its
	// tracker instead of re-leasing work live workers still hold.
	journal, err := dist.OpenJournal(*storeDir, plan)
	if err != nil {
		return fmt.Errorf("opening coordinator journal: %w", err)
	}
	defer journal.Close()

	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Sweep:           opt,
		Store:           st,
		Journal:         journal,
		LeaseTTL:        *leaseTTL,
		ChunkSize:       *chunk,
		QuarantineAfter: *quarAfter,
		SpeculateFactor: *specFact,
		Faults:          plan,
	})
	if err != nil {
		return err
	}
	status := c.Status()
	log.Printf("sweepd: %d jobs (%d already journaled), lease ttl %v, %d jobs/lease",
		status.Total, status.Done, *leaseTTL, *chunk)
	if n := c.Restarts(); n > 0 {
		log.Printf("sweepd: resumed coordinator generation %d over %s (quarantined so far: %d)",
			n, dist.JournalDir(*storeDir), status.Quarantined)
	}

	hs := &http.Server{Addr: *addr, Handler: c, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("sweepd: listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("sweepd: interrupted with %d/%d jobs done; the journal resumes on restart",
			c.Status().Done, status.Total)
	case <-c.Done():
		log.Printf("sweepd: sweep complete (%d jobs)", status.Total)
		if *linger {
			<-ctx.Done()
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	final := c.Status()
	if !final.Complete {
		return fmt.Errorf("sweep incomplete: %d/%d jobs done", final.Done, final.Total)
	}
	s, err := c.Summary()
	if err != nil {
		return err
	}
	if *jsonl != "" {
		out := os.Stdout
		if *jsonl != "-" {
			f, err := os.Create(*jsonl)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		for _, r := range s.Results {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
	}
	if *verbose {
		fmt.Println(s.Table())
	}
	fmt.Printf("aggregates (M: model reduction, S: simulated reduction, D: delay increase)\n\n")
	fmt.Print(s.AggregateTable())
	if s.Failed > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: %d of %d jobs failed:\n", s.Failed, len(s.Results))
		for _, f := range s.Failures {
			fmt.Fprintf(os.Stderr, "  job %d %s sc=%s mode=%s seed=%d: %s\n",
				f.Index, f.Benchmark, f.Scenario, f.Mode, f.Seed, f.Error)
		}
		return fmt.Errorf("%d of %d jobs failed", s.Failed, len(s.Results))
	}
	return nil
}
