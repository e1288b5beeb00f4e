// Command fuzzcheck runs long differential-verification soaks: random
// circuits from the standard generation profiles are pushed through the
// two compiled simulation engines (zero-delay and timed) against the
// naive oracle, incremental-vs-full power analysis and
// optimize-then-verify, on a bounded worker pool. Failures
// shrink to minimal reproductions and stream to a JSONL corpus that
// -replay re-checks later (e.g. after a fix).
//
// Examples:
//
//	fuzzcheck -n 2000                        # 2000 circuits, all profiles
//	fuzzcheck -t 10m -workers 8 -out fail.jsonl
//	fuzzcheck -profiles deep-chains -n 500 -checks engines
//	fuzzcheck -replay fail.jsonl             # re-run saved failures
//
// Job i is a pure function of (-seed, profile, i), so a soak's failure
// set is identical for any -workers value, and every reported artifact
// replays bit-for-bit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		profiles = flag.String("profiles", "", "comma-separated generation profiles (default: all standard profiles)")
		n        = flag.Int("n", 0, "circuit budget (0: run until -t expires)")
		duration = flag.Duration("t", 0, "time budget (0: run until -n circuits)")
		workers  = flag.Int("workers", 0, "worker pool size (default: GOMAXPROCS)")
		seed     = flag.Int64("seed", 1996, "base seed; every job derives its own FNV sub-seed")
		out      = flag.String("out", "", "append failure artifacts to this JSONL file ('-' for stdout)")
		checks   = flag.String("checks", "engines,incremental,optimize", "comma-separated check groups to run")
		noShrink = flag.Bool("noshrink", false, "report failures unminimized")
		replay   = flag.String("replay", "", "replay a JSONL failure corpus instead of soaking")
		list     = flag.Bool("list", false, "print the standard profiles and exit")
	)
	flag.Parse()

	if *list {
		for _, p := range gen.Profiles() {
			fmt.Printf("%-18s inputs %d..%d  gates %d..%d  depth-bias %.2f  config-prob %.2f  tap-prob %.2f\n",
				p.Name, p.MinInputs, p.MaxInputs, p.MinGates, p.MaxGates, p.DepthBias, p.ConfigProb, p.TapProb)
		}
		return nil
	}

	opts, err := checkOptions(*checks)
	if err != nil {
		return err
	}
	if *replay != "" {
		return replayCorpus(*replay, opts)
	}
	if *n <= 0 && *duration <= 0 {
		return fmt.Errorf("need a budget: -n circuits and/or -t duration")
	}

	var profs []gen.Profile
	if *profiles != "" {
		for _, name := range strings.Split(*profiles, ",") {
			p, ok := gen.ProfileByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown profile %q (see -list)", name)
			}
			profs = append(profs, p)
		}
	}

	var sink io.Writer
	var closeSink func() error
	switch *out {
	case "":
	case "-":
		sink = os.Stdout
	default:
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		sink = f
		closeSink = f.Close
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var mu sync.Mutex
	done := 0
	failed := 0
	var sinkErr error
	lastReport := time.Now()
	soakOpts := gen.SoakOptions{
		Profiles: profs,
		Workers:  *workers,
		Circuits: *n,
		Duration: *duration,
		BaseSeed: *seed,
		Check:    opts,
		Shrink:   !*noShrink,
		OnResult: func(job int, f bool) {
			mu.Lock()
			defer mu.Unlock()
			done++
			if f {
				failed++
			}
			if time.Since(lastReport) > 5*time.Second {
				lastReport = time.Now()
				fmt.Fprintf(os.Stderr, "fuzzcheck: %d circuits checked, %d failures\n", done, failed)
			}
		},
	}
	if sink != nil {
		// Stream each artifact the moment it is found, unbuffered: a long
		// soak that crashes or is killed keeps everything found so far.
		soakOpts.OnFailure = func(a gen.Artifact) {
			line, err := a.MarshalJSONL()
			if err == nil {
				_, err = sink.Write(line)
			}
			if err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
	}
	stats, fails, err := gen.Soak(ctx, soakOpts)
	if err != nil {
		return err
	}
	if closeSink != nil {
		if err := closeSink(); err != nil {
			return err
		}
	}
	if sinkErr != nil {
		return fmt.Errorf("writing %s: %w", *out, sinkErr)
	}
	fmt.Printf("checked %d circuits in %v (", stats.Circuits, stats.Elapsed.Round(time.Millisecond))
	first := true
	for _, p := range gen.Profiles() {
		if c, ok := stats.PerProfile[p.Name]; ok {
			if !first {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", p.Name, c)
			first = false
		}
	}
	fmt.Printf("): %d failures\n", stats.Failures)
	for _, a := range fails {
		fmt.Printf("FAIL %s: %s (profile %s seed %d)\n", a.Check, a.Detail, a.Profile, a.Seed)
	}
	if stats.Failures > 0 {
		return fmt.Errorf("%d differential failures", stats.Failures)
	}
	return nil
}

// checkOptions builds CheckOptions from the -checks list.
func checkOptions(list string) (gen.CheckOptions, error) {
	opts := gen.DefaultCheckOptions()
	opts.Engines, opts.Incremental, opts.Optimize = false, false, false
	for _, c := range strings.Split(list, ",") {
		switch strings.TrimSpace(c) {
		case "engines":
			opts.Engines = true
		case "incremental":
			opts.Incremental = true
		case "optimize":
			opts.Optimize = true
		case "":
		default:
			return opts, fmt.Errorf("unknown check group %q (want engines, incremental, optimize)", c)
		}
	}
	if !opts.Engines && !opts.Incremental && !opts.Optimize {
		return opts, fmt.Errorf("-checks selected nothing")
	}
	return opts, nil
}

// replayCorpus re-runs every artifact of a JSONL failure corpus.
func replayCorpus(path string, opts gen.CheckOptions) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	reproduced := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var a gen.Artifact
		if err := json.Unmarshal([]byte(text), &a); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		d, err := gen.Replay(a, opts)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if d != nil {
			reproduced++
			fmt.Printf("STILL FAILING %s:%d: %v\n", path, line, d)
		} else {
			fmt.Printf("fixed %s:%d: %s (profile %s seed %d)\n", path, line, a.Check, a.Profile, a.Seed)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if reproduced > 0 {
		return fmt.Errorf("%d artifacts still reproduce", reproduced)
	}
	return nil
}
