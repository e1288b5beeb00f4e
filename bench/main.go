// Command bench is the repository's end-to-end benchmark. It runs one
// workload for a given time and seed, checks that every output is
// correct, and prints every metric BENCHMARK.json lists, by name with its
// unit, ending with one JSON line:
//
//	bash bench/run.sh --workload sweep-a-unit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// repeats the run's work with a span around every call into a layer and
// reports the per-layer metrics instead. `bench compare BASE HEAD` compares
// two directories of results files. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workers is the sweep pool size and the service's worker and connection
// count. It is a constant rather than the CPU count, so that a run's work
// does not depend on the machine; 2 matches a 2-CPU machine.
const workers = 2

// setupProbes is how many fresh processes measure setup_s per run.
const setupProbes = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spec     *spec
	out      string
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: sweep-a-unit, sweep-b-unit, sweep-model or serve-mix")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1: traced pass, reporting the per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	out := fs.String("out", ".bench_build/results", "directory for results files, spans and scratch data")
	probe := fs.Bool("setup-probe", false, "set the workload up, print \"ready\" and its CPU time, and exit (used to measure setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *probe {
		if err := setupProbe(*workload, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !sp.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (%s lists %s)\n", *workload, *specPath, strings.Join(sp.workloadNames(), ", "))
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spec: sp, out: *out}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := res.report(cfg, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// outcome is what one run measured and checked.
type outcome struct {
	values    map[string]float64
	samples   map[string]int // operations behind each value
	problems  []string       // failed output checks
	attempted int
	failed    int
	digest    string // of the output the golden file pins
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setLatency reports the interquartile mean of lat, in milliseconds, and
// prints the median and, where at least 100 samples support it, the 90th
// percentile. Over ten runs on a shared host the median of sweep-model's
// jobs spread 9-14% and the p90 of any workload 10-20%; the interquartile
// mean, which averages the middle half instead of picking one sample in
// it, spread 3-6% on every workload.
func (o *outcome) setLatency(lat []float64) error {
	mean, err := iqm(lat)
	if err != nil {
		return err
	}
	o.set("latency_ms_iqm", mean, len(lat))
	p50, _ := percentile(lat, 50) // supported wherever the IQM is
	msg := fmt.Sprintf("latency p50 %.3f ms", p50)
	if p90, err := percentile(lat, 90); err == nil {
		msg += fmt.Sprintf(", p90 %.3f ms", p90)
	}
	o.note("%s (n=%d)", msg, len(lat))
	return nil
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// run executes the configured workload once.
func run(ctx context.Context, cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := tmpDir(cfg.out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	clock := startStealClock()
	defer clock.close()
	res := newOutcome()
	res.note("workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d workers=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), workers)
	if w := sweepWorkloadNamed(cfg.workload); w != nil {
		err = runSweep(ctx, w, cfg, tr, clock, tmp, res)
	} else {
		err = runServe(ctx, &serveMix, cfg, tr, clock, res)
	}
	if err != nil {
		return nil, err
	}
	if err := checkGolden(cfg.workload, cfg.seed, res); err != nil {
		return nil, err
	}
	if cfg.trace {
		path := spanFile(cfg.out, cfg.workload, cfg.seed)
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		res.note("spans: %s", path)
		return res, nil
	}
	if rss, err := peakRSSMiB(); err == nil {
		res.note("peak resident set %.1f MiB (not a metric: it moves 15%% run to run with garbage-collection timing)", rss)
	}
	probes, err := measureSetup(ctx, cfg.workload)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(probes), len(probes))
	return res, nil
}

func sweepWorkloadNamed(name string) *sweepWorkload {
	for _, w := range []*sweepWorkload{&sweepAUnit, &sweepBUnit, &sweepModel} {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runSweep runs a sweep workload: untraced, rounds for the whole run;
// traced, rounds for half of it and then the mirror over the same jobs.
func runSweep(ctx context.Context, w *sweepWorkload, cfg config, tr *tracer, clock *stealClock, tmp string, res *outcome) error {
	setupStart := time.Now()
	env, err := w.setup(tr)
	if err != nil {
		return err
	}
	setupWall := time.Since(setupStart)
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	sr, err := w.measure(ctx, env, cfg.seed, seconds, tmp)
	if err != nil {
		return err
	}
	res.attempted, res.failed = sr.jobs, sr.failed
	for _, p := range sr.bad {
		res.fail("%s", p)
	}
	res.digest = sr.rounds[0].digest
	net := sr.net(clock)
	res.note("rounds=%d jobs=%d wall=%.3fs net of steal=%.3fs round-0 digest %s", len(sr.rounds), sr.jobs, sr.wall.Seconds(), net.Seconds(), res.digest)
	if !cfg.trace {
		return sr.endToEnd(res, clock)
	}

	start := time.Now()
	job := 0
	for i, round := range sr.rounds {
		d, err := mirrorRound(tr, round, w.journal, tmp, job)
		if err != nil {
			return fmt.Errorf("traced round %d: %w", i, err)
		}
		if d != round.digest {
			res.fail("traced round %d digest %s differs from sweep.Run's %s", i, d, round.digest)
		}
		job += len(round.results)
	}
	end := time.Now()
	mirrorNet := clock.net(start, end)
	res.note("traced pass net of steal=%.3fs", mirrorNet.Seconds())
	sweepLayers(tr, res, setupWall, clock.ran(start, end), mirrorNet.Seconds()/net.Seconds(), sr)
	return nil
}

// sweepLayers derives the per-layer metrics of a traced sweep run. Layer
// shares are of the traced busy time: every job span plus the store calls
// the workers make between jobs. Rates are of span time net of steal,
// ran being the share of the traced pass the CPUs ran (see stealClock).
func sweepLayers(tr *tracer, res *outcome, setupWall time.Duration, ran, overhead float64, sr *sweepRun) {
	var setup, jobs []span
	for _, s := range tr.snapshot() {
		if s.Job < 0 {
			setup = append(setup, s)
		} else {
			jobs = append(jobs, s)
		}
	}
	st, lt := sumLayers(setup), sumLayers(jobs)
	busy := lt.total["sweep.job"] + lt.total["store.put"] + lt.total["store.open"] + lt.total["store.get"]
	share := func(d time.Duration) float64 { return pct(d, busy) }
	res.set("setup.mcnc_load.pct", pct(st.total["mcnc.load"], setupWall), st.calls["mcnc.load"])
	for _, k := range []string{"reorder.optimize", "sim.compile", "sim.draw", "stoch.pack", "sim.run", "delay.increase", "store.put"} {
		res.set(k+".pct", share(lt.total[k]), lt.calls[k])
	}
	res.set("store.get.pct", share(lt.total["store.open"]+lt.total["store.get"]), lt.calls["store.get"])
	res.set("job.other.pct", share(lt.self["sweep.job"]), lt.calls["sweep.job"])
	for _, k := range []string{"stoch.pack.transitions", "store.put.bytes"} {
		res.set(k, float64(tr.counter(k)), lt.calls["sweep.job"])
	}
	rate := func(work, layer string) {
		if d := lt.total[layer].Seconds() * ran; d > 0 {
			res.set(work+"_per_s", float64(tr.counter(work))/d, lt.calls[layer])
		}
	}
	rate("reorder.optimize.gates", "reorder.optimize")
	rate("sim.run.vectors", "sim.run")
	res.set("sweep.busy.pct", sr.busyPct(), sr.jobs)
	res.set("trace.overhead_ratio", overhead, sr.jobs)
	res.set("trace.ops", float64(lt.calls["sweep.job"]), lt.calls["sweep.job"])
}

// runServe runs the service workload.
func runServe(ctx context.Context, w *serveWorkload, cfg config, tr *tracer, clock *stealClock, res *outcome) error {
	env, err := w.setup(tr)
	if err != nil {
		return err
	}
	sr, err := w.measure(ctx, env, cfg.seed, cfg.seconds, cfg.trace)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.digest = serveDigest(w.check(sr, res))
	var late []float64
	for _, d := range sr.late {
		late = append(late, float64(d.Microseconds())/1e3)
	}
	if p95, err := percentile(late, 95); err == nil {
		res.note("generator lateness p95 %.2f ms over %d requests", p95, len(late))
	}
	open := latencies(sr.openReps, clock)
	p50, err50 := percentile(open, 50)
	p90, err90 := percentile(open, 90)
	if err50 == nil && err90 == nil {
		res.note("open loop: %d requests at %g/s, latency net of steal p50 %.3f ms, p90 %.3f ms (n=%d)",
			len(sr.open), w.rate, p50, p90, len(open))
	}
	res.note("closed loop: %d requests; digest of the first %d requests: %s", len(sr.closed), w.golden, res.digest)
	if !cfg.trace {
		return sr.endToEnd(res, clock)
	}
	serveLayers(w, tr, clock, res, sr)
	return nil
}

// serveLayers derives the per-layer metrics of a traced service run.
// Latency shares are of the open-loop step; handler shares by request
// kind cover both steps.
func serveLayers(w *serveWorkload, tr *tracer, clock *stealClock, res *outcome, sr *serveRun) {
	var open []span
	var handlers []span
	for _, s := range tr.snapshot() {
		if s.Layer == "serve" {
			handlers = append(handlers, s)
		}
		if s.Job < len(sr.open) {
			open = append(open, s)
		}
	}
	lt, ht := sumLayers(open), sumLayers(handlers)
	var inOpen, inAll time.Duration
	for k, d := range lt.total {
		if strings.HasPrefix(k, "serve.") {
			inOpen += d
		}
	}
	for _, d := range ht.total {
		inAll += d
	}
	n := lt.calls["loadgen.request"]
	lat := lt.total["loadgen.request"]
	res.set("serve.handler.pct", pct(inOpen, lat), n)
	res.set("serve.conn_wait.pct", pct(lt.total["loadgen.conn_wait"], lat), n)
	for _, m := range w.mix {
		k := "serve." + m.kind
		res.set(k+".pct", pct(ht.total[k], inAll), ht.calls[k])
	}
	res.set("serve.busy.pct", pct(inOpen, time.Duration(workers)*sr.openSpan.end.Sub(sr.openSpan.start)), n)
	for _, c := range []string{"response", "circuit", "program"} {
		res.set("serve.cache."+c+".hit.pct", sr.hitPct(c), n)
	}
	var coalesced float64
	for _, c := range []string{"response", "circuit", "program"} {
		coalesced += sr.counterDelta(fmt.Sprintf("servd_cache_coalesced_total{cache=%q}", c))
	}
	res.set("serve.coalesced", coalesced, n)
	res.set("serve.shed", sr.counterDelta("servd_shed_total"), n)
	late := 0
	for _, d := range sr.late {
		if d > time.Millisecond {
			late++
		}
	}
	res.set("loadgen.late.pct", 100*float64(late)/float64(len(sr.late)), len(sr.late))
	res.set("trace.overhead_ratio", sr.closedRate(0, clock)/sr.closedRate(1, clock), sr.closedN[0]+sr.closedN[1])
	res.set("trace.ops", float64(len(handlers)), len(handlers))
}

// report prints every metric the spec lists for this kind of run, with
// unit and sample count, then the one-line JSON result, and writes the
// results file.
func (o *outcome) report(cfg config, w io.Writer) error {
	defs := cfg.spec.EndToEnd
	if cfg.trace {
		defs = cfg.spec.PerLayer
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "#", n)
	}
	metrics := map[string]resultMetric{}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		// A layer the workload never calls reports 0.
		metrics[d.Name] = resultMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %14s %-6s n=%d\n", d.Name, strconv.FormatFloat(v, 'g', 6, 64), d.Unit, o.samples[d.Name])
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "# CHECK FAILED:", p)
	}
	line := resultLine{Correct: o.correct(), Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: metrics}
	rec := resultRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Finished: time.Now().UTC(),
		Samples: o.samples, Digest: o.digest, Problems: o.problems, resultLine: line,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace), time.Now().UnixNano()))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "# results:", path)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resultMetric is one metric of the result line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultRecord is the results file: the result line plus what compare
// and a reader need to judge it.
type resultRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Finished   time.Time      `json:"finished"`
	Samples    map[string]int `json:"samples"`
	Digest     string         `json:"digest"`
	Problems   []string       `json:"problems,omitempty"`
	resultLine
}

// measureSetup starts setupProbes fresh copies of this program, one after
// another, each of which sets the workload up and reports the CPU time it
// used from process start until then. Set-up runs on one goroutine at a
// time, so its CPU time is the wait a user has before the first job or
// request on an unshared CPU, and unlike wall time it does not move with
// the host's other tenants.
func measureSetup(ctx context.Context, workload string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-probe", "--workload", workload)
		cmd.Stderr = os.Stderr
		text, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ns, ok := strings.CutPrefix(strings.TrimSpace(string(text)), "ready ")
		cpu, err := strconv.ParseInt(ns, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("setup probe printed %q", text)
		}
		out = append(out, time.Duration(cpu).Seconds())
	}
	return out, nil
}

// setupProbe is the body of a probe process: set the workload up, report
// the CPU time used so far in nanoseconds, tear it down.
func setupProbe(workload string, stdout io.Writer) error {
	if w := sweepWorkloadNamed(workload); w != nil {
		if _, err := w.setup(nil); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "ready %d\n", cpuTime().Nanoseconds())
		return nil
	}
	if workload != serveMix.name {
		return fmt.Errorf("unknown workload %q", workload)
	}
	env, err := serveMix.setup(nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ready %d\n", cpuTime().Nanoseconds())
	return env.close()
}
