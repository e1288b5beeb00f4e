// Package sweep is the concurrent experiment engine: it fans
// benchmark × scenario × mode × seed jobs across a bounded worker pool and
// streams structured results as they complete. It generalizes the serial
// Table 3 harness in internal/expt — one scenario, one mode, one seed —
// to the full cross product the paper's Figure 6 compares, with:
//
//   - deterministic per-job seeding: every job's input statistics and
//     simulation stimulus derive from a hash of (benchmark, scenario,
//     mode, seed), so results are identical regardless of worker count or
//     completion order;
//   - a shared, duplicate-suppressed circuit cache: each benchmark is
//     parsed and technology-mapped exactly once no matter how many jobs
//     or workers touch it — circuits are read-only after loading
//     (optimization clones), and per-job propagation state stays
//     worker-local (the gate-configuration template cache in
//     internal/core is shared process-wide already). The cache is an
//     internal/serve/cache LRU with singleflight coalescing; pass one in
//     via Options.Cache to keep circuits warm across runs (the HTTP
//     service does), or leave it nil for a private per-run cache;
//   - cancellation via context.Context: in-flight gates finish, queued
//     jobs are abandoned, and Run returns ctx.Err();
//   - streaming: each finished job is encoded as one JSON line to
//     Options.Stream and/or handed to Options.OnResult, while Run's
//     return value keeps the deterministic job order for the aggregate
//     table;
//   - durability: Options.Store journals every successful result into a
//     content-addressed append-only store (internal/store) keyed by
//     Job.StoreKey — a hash of the job's full content identity — and
//     Options.Resume replays stored results instead of recomputing, so
//     a sweep killed mid-run resumes byte-identically (modulo timing
//     fields) to an uninterrupted run;
//   - fault tolerance: every worker isolates job panics into structured
//     failure records instead of killing the sweep, retries retryable
//     failures with exponential backoff + seeded jitter
//     (Options.Retries / Options.RetryBackoff), and reports the failure
//     set in Summary.Failures. Options.Faults threads the deterministic
//     chaos harness (internal/faults) through the workers and the store
//     writer for the crash-safety test suites.
//
// The simulated S column follows Options.Expt.Sim: sim.ReductionVectors
// runs zero-delay jobs on the levelized compiled program and
// unit-/Elmore-delay jobs on the timed compiled program (a word-level
// timing wheel), each measuring
// Options.Expt.SimVectors Monte Carlo vectors streamed in register
// blocks of Options.Expt.SimLanes lanes per pass.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/serve/cache"
	"repro/internal/store"
)

// CircuitCache is the shared circuit store: parsed + technology-mapped
// circuits keyed by CircuitKey, with singleflight duplicate suppression.
// One instance may back any number of concurrent sweeps and HTTP requests
// — cached circuits are read-only by convention (every mutating consumer
// clones). All circuits in one cache must be mapped onto the same
// library.
type CircuitCache = cache.LRU[string, *circuit.Circuit]

// NewCircuitCache returns an empty circuit cache holding at most capacity
// circuits (capacity <= 0: unbounded).
func NewCircuitCache(capacity int) *CircuitCache {
	return cache.New[string, *circuit.Circuit](capacity)
}

// CircuitKey is the cache-key convention for benchmark circuits. Callers
// caching circuits from other sources (e.g. request-supplied GNL) must
// use a distinct prefix; internal/serve uses "gnl:<content hash>".
func CircuitKey(benchmark string) string { return "bench:" + benchmark }

// Job identifies one cell of the sweep cross product.
type Job struct {
	Index     int           // position in the deterministic job order
	Benchmark string        // mcnc benchmark name
	Scenario  expt.Scenario // input-statistics regime (Fig. 6)
	Mode      reorder.Mode  // optimizer search space
	Seed      int64         // user-level seed (replicate index)
}

// EffectiveSeed mixes the job coordinates into the seed that drives the
// job's randomness. Two different jobs never share an RNG stream, and the
// same job always gets the same stream — the property that makes the
// sweep deterministic under any worker count.
func (j Job) EffectiveSeed() int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%d", j.Benchmark, j.Scenario, j.Mode, j.Seed)
	return int64(h.Sum64())
}

// identityVersion is baked into every StoreKey. Bump it whenever a
// semantic change makes previously stored results stale (an engine fix,
// a changed default) so old journals miss instead of serving wrong
// bytes.
const identityVersion = "v1"

// StoreKey is the job's content address in a result store: the SHA-256
// of everything its result is a pure function of — the benchmark's
// source text (or its name, for synthesized stand-ins), the scenario,
// mode and seed, and every engine parameter of opt that reaches the
// computation. Job.Index is deliberately excluded: the same cell of a
// differently-shaped sweep reuses its stored result.
func (j Job) StoreKey(opt Options) string {
	sum := sha256.Sum256([]byte(j.identity(opt)))
	return hex.EncodeToString(sum[:])
}

// identity renders the canonical identity string StoreKey hashes.
func (j Job) identity(opt Options) string {
	benchID := j.Benchmark
	if src, ok := mcnc.EmbeddedSource(j.Benchmark); ok {
		srcSum := sha256.Sum256([]byte(src))
		benchID = "sha256:" + hex.EncodeToString(srcSum[:])
	}
	e := opt.Expt
	// SimLanes is part of the identity even though chunking is exact at
	// the transition-count level: per-pack energies sum in a different
	// floating-point order at different lane widths, so stored bytes are
	// only guaranteed reproducible per width.
	return fmt.Sprintf(
		"%s|bench=%s|sc=%s|mode=%s|seed=%d|simulate=%t|sim=%+v|vectors=%d|lanes=%d|horizonA=%g|cyclesB=%d|periodB=%g|maxDensA=%g|params=%+v|delay=%+v",
		identityVersion, benchID, j.Scenario, j.Mode, j.Seed,
		opt.Simulate, e.Sim, e.SimVectors, e.SimLanes, e.HorizonA, e.CyclesB, e.PeriodB, e.MaxDensA,
		e.Params, e.Delay)
}

// Result is one finished job. It is self-describing (it repeats the job
// coordinates) so a JSONL stream can be filtered and joined without
// positional context.
type Result struct {
	Index      int     `json:"index"`
	Benchmark  string  `json:"benchmark"`
	Scenario   string  `json:"scenario"`
	Mode       string  `json:"mode"`
	Seed       int64   `json:"seed"`
	Gates      int     `json:"gates"`
	Changed    int     `json:"changed"`              // gates reconfigured by the minimizer
	PowerBest  float64 `json:"power_best"`           // model watts, minimized
	PowerWorst float64 `json:"power_worst"`          // model watts, maximized
	ModelRed   float64 `json:"model_reduction"`      // M column of Table 3
	SimRed     float64 `json:"sim_reduction"`        // S column (0 unless Simulate)
	DelayInc   float64 `json:"delay_increase"`       // D column
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"` // wall time; not deterministic
	Err        string  `json:"error,omitempty"`
	FailKind   string  `json:"fail_kind,omitempty"` // "error" or "panic"; set with Err
}

// Options configures a sweep.
type Options struct {
	Benchmarks []string        // default: all Table 3 benchmarks
	Scenarios  []expt.Scenario // default: {A, B}
	Modes      []reorder.Mode  // default: {Full}
	Seeds      []int64         // replicate seeds; default: {Expt.Seed}
	Workers    int             // pool size; default: GOMAXPROCS
	Simulate   bool            // also measure by switch-level simulation (S column)
	Expt       expt.Options    // electrical constants, horizons, library

	// OptimizerWorkers sets reorder.Options.Workers inside each job: the
	// per-gate parallel candidate search of the optimizer. The default 0
	// keeps each job's search serial — the sweep pool above already
	// saturates the cores, and nesting a second GOMAXPROCS pool per job
	// would oversubscribe. Raise it for few-job sweeps of large circuits.
	// Results are identical for any value.
	OptimizerWorkers int

	// Cache optionally supplies a shared circuit cache so benchmarks
	// loaded by this sweep stay warm for later sweeps and for the HTTP
	// service's other endpoints. Nil uses a private, unbounded per-run
	// cache (the pre-service behavior). Results are identical either way
	// — the cache only suppresses duplicate parse+map work.
	Cache *CircuitCache

	// Store optionally journals every successful result into a durable,
	// content-addressed store as it completes (keyed by Job.StoreKey).
	// Store writes never fail a job: a persistently failing append is
	// counted in Summary.StoreErrors and the result stands.
	Store *store.Store
	// Resume replays results already present in Store — matched by
	// content identity, so only jobs whose every relevant parameter is
	// unchanged hit — re-emitting them into the stream/OnResult in job
	// order before any computation starts. Requires Store.
	Resume bool

	// Retries bounds re-executions of a job after a retryable failure
	// (an injected fault, or any error implementing Retryable() bool —
	// business errors like an unknown benchmark never retry). 0: fail on
	// the first error, the pre-durability behavior.
	Retries int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (doubled per retry, capped at 64×, with ±50% jitter
	// seeded by the job key so schedules are deterministic). 0: 50ms.
	RetryBackoff time.Duration

	// Faults threads the deterministic fault-injection harness through
	// this sweep's workers (site "sweep/job", keyed by Job.StoreKey and
	// attempt). Nil — the production configuration — injects nothing.
	Faults *faults.Plan

	Stream   io.Writer    // optional: one JSON object per finished job
	OnResult func(Result) // optional: called per finished job (serialized)
}

// DefaultOptions returns the paper's sweep: every Table 3 benchmark under
// both scenarios, full reordering, simulation on.
func DefaultOptions() Options {
	return Options{
		Scenarios: []expt.Scenario{expt.ScenarioA, expt.ScenarioB},
		Modes:     []reorder.Mode{reorder.Full},
		Workers:   runtime.GOMAXPROCS(0),
		Simulate:  true,
		Expt:      expt.DefaultOptions(),
	}
}

// Jobs expands the cross product in deterministic order: benchmarks
// outermost, then scenarios, modes, seeds.
func Jobs(opt Options) []Job {
	benches := opt.Benchmarks
	if len(benches) == 0 {
		benches = mcnc.Names()
	}
	scenarios := opt.Scenarios
	if len(scenarios) == 0 {
		scenarios = []expt.Scenario{expt.ScenarioA, expt.ScenarioB}
	}
	modes := opt.Modes
	if len(modes) == 0 {
		modes = []reorder.Mode{reorder.Full}
	}
	seeds := opt.Seeds
	if len(seeds) == 0 {
		seeds = []int64{opt.Expt.Seed}
	}
	jobs := make([]Job, 0, len(benches)*len(scenarios)*len(modes)*len(seeds))
	for _, b := range benches {
		for _, sc := range scenarios {
			for _, m := range modes {
				for _, s := range seeds {
					jobs = append(jobs, Job{Index: len(jobs), Benchmark: b, Scenario: sc, Mode: m, Seed: s})
				}
			}
		}
	}
	return jobs
}

// Aggregate is the mean of one scenario × mode slice of the sweep.
type Aggregate struct {
	Scenario string  `json:"scenario"`
	Mode     string  `json:"mode"`
	Rows     int     `json:"rows"`
	ModelRed float64 `json:"model_reduction"`
	SimRed   float64 `json:"sim_reduction"`
	DelayInc float64 `json:"delay_increase"`
}

// FailureRecord is the structured account of one job that exhausted its
// attempts. It repeats the job coordinates so failure sets can be
// compared across runs (the chaos suite pins them as deterministic).
type FailureRecord struct {
	Index     int    `json:"index"`
	Benchmark string `json:"benchmark"`
	Scenario  string `json:"scenario"`
	Mode      string `json:"mode"`
	Seed      int64  `json:"seed"`
	Kind      string `json:"kind"` // "error" or "panic"
	Error     string `json:"error"`
	Attempts  int    `json:"attempts"`
}

// Summary is a completed sweep: per-job results in deterministic job
// order plus scenario × mode aggregates and the fault-tolerance
// accounting.
type Summary struct {
	Results    []Result
	Aggregates []Aggregate
	Failed     int // jobs that recorded an error
	// Failures details every failed job, ordered by job index.
	Failures []FailureRecord
	// Retried counts re-execution attempts across all jobs (0 in a
	// fault-free sweep).
	Retried int
	// Resumed counts jobs replayed from Options.Store instead of
	// computed.
	Resumed int
	// StoreErrors counts results the journal failed to persist after
	// bounded retries; the results themselves are unaffected.
	StoreErrors int
}

// Run executes the sweep. It returns once every job has finished, or
// early with ctx.Err() on cancellation (results already streamed stand).
// Per-job failures — including isolated panics — do not abort the
// sweep; they are recorded in Result.Err, detailed in Summary.Failures
// and counted in Summary.Failed. With Options.Store set, every
// successful result is journaled as it completes; with Options.Resume,
// previously stored results are replayed (in job order, before any
// computation) instead of recomputed.
func Run(ctx context.Context, opt Options) (*Summary, error) {
	if opt.Resume && opt.Store == nil {
		return nil, fmt.Errorf("sweep: Options.Resume requires Options.Store")
	}
	jobs := Jobs(opt)
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if opt.Expt.Lib == nil {
		opt.Expt.Lib = library.Default()
	}

	// A streaming failure cancels the rest of the sweep: there is no
	// point simulating jobs whose results can no longer be written.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(jobs))
	attempts := make([]int, len(jobs)) // per-job executions; 0 = resumed
	kinds := make([]string, len(jobs))
	skip := make([]bool, len(jobs))

	// Job content keys feed the store and the fault plan; both are off
	// on the default path, so don't hash 50k identities for nothing.
	keys := make([]string, len(jobs))
	if opt.Store != nil || opt.Faults != nil {
		for i, j := range jobs {
			keys[i] = j.StoreKey(opt)
		}
	}

	var emitMu sync.Mutex
	var emitErr error
	var enc *json.Encoder
	if opt.Stream != nil {
		enc = json.NewEncoder(opt.Stream)
	}
	emit := func(r Result) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if enc != nil && emitErr == nil {
			if err := enc.Encode(r); err != nil {
				emitErr = fmt.Errorf("sweep: streaming result %d: %w", r.Index, err)
				cancel()
			}
		}
		if opt.OnResult != nil {
			opt.OnResult(r)
		}
	}

	// Resume pass: replay stored results before any worker starts, in
	// deterministic job order. A record that fails to decode is treated
	// as a miss and recomputed.
	resumed := 0
	if opt.Resume {
		for i := range jobs {
			if ctx.Err() != nil {
				break
			}
			data, ok := opt.Store.Get(keys[i])
			if !ok {
				continue
			}
			var r Result
			if err := json.Unmarshal(data, &r); err != nil || r.Err != "" {
				continue
			}
			r.Index = jobs[i].Index
			results[i] = r
			skip[i] = true
			resumed++
			emit(r)
		}
	}

	var storeErrs int
	var storeMu sync.Mutex
	persist := func(key string, r Result) {
		data, err := json.Marshal(r)
		if err == nil {
			for a := 0; a < 4; a++ {
				if err = opt.Store.Put(key, data); err == nil || !faults.Retryable(err) {
					break
				}
			}
		}
		if err != nil {
			storeMu.Lock()
			storeErrs++
			storeMu.Unlock()
		}
	}

	next := make(chan int)
	var wg sync.WaitGroup
	cc := opt.Cache
	if cc == nil {
		cc = NewCircuitCache(0)
	}
	dm := cache.New[delayKey, float64](0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without working; Run reports the cause
				}
				res, att, kind := runJobRetry(ctx, jobs[i], keys[i], cc, dm, opt)
				results[i], attempts[i], kinds[i] = res, att, kind
				if opt.Store != nil && res.Err == "" {
					persist(keys[i], res)
				}
				emit(res)
			}
		}()
	}
dispatch:
	for i := range jobs {
		if skip[i] {
			continue
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if emitErr != nil {
		return nil, emitErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s := &Summary{Results: results, Resumed: resumed, StoreErrors: storeErrs}
	for i := range results {
		if n := attempts[i]; n > 1 {
			s.Retried += n - 1
		}
		if r := &results[i]; r.Err != "" {
			kind := kinds[i]
			if kind == "" {
				kind = "error"
			}
			s.Failures = append(s.Failures, FailureRecord{
				Index:     r.Index,
				Benchmark: r.Benchmark,
				Scenario:  r.Scenario,
				Mode:      r.Mode,
				Seed:      r.Seed,
				Kind:      kind,
				Error:     r.Err,
				Attempts:  max(attempts[i], 1),
			})
		}
	}
	s.aggregate()
	return s, nil
}

// Summarize folds per-job results (in deterministic job order) into a
// Summary with scenario × mode aggregates and the failure count filled
// in. It is how a distributed coordinator — which collects results over
// HTTP rather than from its own worker pool — reports the same tables a
// single-process Run would.
func Summarize(results []Result) *Summary {
	s := &Summary{Results: results}
	s.aggregate()
	return s
}

// ExecuteJob runs one job exactly as a sweep worker would: scheduled
// faults fire at site "sweep/job" keyed by key, panics are isolated,
// retryable failures respect opt.Retries/opt.RetryBackoff with seeded
// jitter. It returns the final result (Err/FailKind set on failure) and
// the number of attempts executed. Distributed workers
// (internal/dist) call this so a leased job computes byte-identically
// to the same job in a local sweep. Outside a Run there is no per-run
// memo of the unchanged circuit's delay, so every call computes it
// directly — the same value a Run's memo holds.
func ExecuteJob(ctx context.Context, job Job, key string, cc *CircuitCache, opt Options) (Result, int) {
	if opt.Expt.Lib == nil {
		opt.Expt.Lib = library.Default()
	}
	res, attempts, _ := runJobRetry(ctx, job, key, cc, nil, opt)
	return res, attempts
}

// runJobRetry drives one job to success or a structured failure:
// panic-isolated attempts, bounded retries for retryable errors, and
// exponential backoff with seeded jitter between them. It returns the
// final result (Err/FailKind set on failure), the number of attempts
// executed, and the failure kind ("" on success).
func runJobRetry(ctx context.Context, job Job, key string, cc *CircuitCache, dm *delayMemo, opt Options) (Result, int, string) {
	maxAttempts := opt.Retries + 1
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		res, err, kind := runJobAttempt(job, key, attempt, cc, dm, opt)
		if err == nil {
			return res, attempt, ""
		}
		if attempt >= maxAttempts || !faults.Retryable(err) || ctx.Err() != nil {
			res.Err = err.Error()
			res.FailKind = kind
			return res, attempt, kind
		}
		sleepBackoff(ctx, opt.RetryBackoff, key, attempt)
	}
}

// sleepBackoff waits faults.Backoff after the given failed attempt
// (1-based; base 50ms by default), or until ctx is done.
func sleepBackoff(ctx context.Context, base time.Duration, key string, attempt int) {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	t := time.NewTimer(faults.Backoff(base, key, attempt-1))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runJobAttempt executes one attempt of a job with the worker's safety
// gear on: scheduled faults fire first (site "sweep/job"), and any panic
// — injected or real — is isolated into an error instead of unwinding
// the worker. On failure the returned Result still carries the job
// coordinates and elapsed time; the caller fills Err/FailKind.
func runJobAttempt(job Job, key string, attempt int, cc *CircuitCache, dm *delayMemo, opt Options) (res Result, err error, kind string) {
	start := time.Now()
	finish := func() {
		res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	}
	defer func() {
		if v := recover(); v != nil {
			kind = "panic"
			err = faults.PanicError(v)
			finish()
		}
	}()
	res = Result{
		Index:     job.Index,
		Benchmark: job.Benchmark,
		Scenario:  job.Scenario.String(),
		Mode:      job.Mode.String(),
		Seed:      job.Seed,
	}
	if err = opt.Faults.Inject("sweep/job", key, attempt); err != nil {
		finish()
		return res, err, "error"
	}
	err = computeJob(job, cc, dm, opt, &res)
	finish()
	if err != nil {
		return res, err, "error"
	}
	return res, nil, ""
}

// aggregate folds the per-job results into scenario × mode means, in the
// order the results enumerate them.
func (s *Summary) aggregate() {
	type key struct{ sc, mode string }
	idx := map[key]int{}
	for _, r := range s.Results {
		if r.Err != "" {
			s.Failed++
			continue
		}
		k := key{r.Scenario, r.Mode}
		i, ok := idx[k]
		if !ok {
			i = len(s.Aggregates)
			idx[k] = i
			s.Aggregates = append(s.Aggregates, Aggregate{Scenario: r.Scenario, Mode: r.Mode})
		}
		a := &s.Aggregates[i]
		a.Rows++
		a.ModelRed += r.ModelRed
		a.SimRed += r.SimRed
		a.DelayInc += r.DelayInc
	}
	for i := range s.Aggregates {
		a := &s.Aggregates[i]
		if a.Rows > 0 {
			a.ModelRed /= float64(a.Rows)
			a.SimRed /= float64(a.Rows)
			a.DelayInc /= float64(a.Rows)
		}
	}
}

// loadCircuit fills the shared cache with the named benchmark. Loading
// (BLIF parse or synthesis + technology mapping) dominates small jobs;
// the loaded circuit is read-only thereafter — every consumer that
// mutates works on a clone — so sharing one copy is safe. The cache's
// singleflight suppresses duplicate loads when several workers request
// the same benchmark concurrently without serializing loads of different
// benchmarks.
func loadCircuit(cc *CircuitCache, name string, lib *library.Library) (*circuit.Circuit, error) {
	return cc.Get(CircuitKey(name), func() (*circuit.Circuit, error) {
		return mcnc.Load(name, lib)
	})
}

// delayKey identifies the critical-path delay of one loaded, unmodified
// benchmark circuit (by CircuitKey) under one set of delay parameters.
type delayKey struct {
	circuit string
	prm     delay.Params
}

// delayMemo holds, for one Run, the unchanged circuits' critical-path
// delays: every job of a benchmark compares its reordering against the
// same loaded circuit, so its delay is computed once (singleflight, as
// the circuit cache loads) instead of once per job.
type delayMemo = cache.LRU[delayKey, float64]

// unchangedDelay returns the critical-path delay of c, the loaded
// benchmark circuit behind key, through dm when there is one.
func unchangedDelay(dm *delayMemo, key string, c *circuit.Circuit, prm delay.Params) (float64, error) {
	compute := func() (float64, error) {
		d, err := delay.CircuitDelay(c, prm)
		if err != nil {
			return 0, err
		}
		return d.Delay, nil
	}
	if dm == nil {
		return compute()
	}
	return dm.Get(delayKey{key, prm}, compute)
}

// computeJob measures one cell of the cross product into res: best- and
// worst-power reorderings under the job's mode, the model reduction
// between them, optionally the switch-level-simulated reduction under
// identical stimulus, and the delay increase of the power-optimal
// circuit. dm, if non-nil, memoizes the unchanged circuit's delay.
func computeJob(job Job, cc *CircuitCache, dm *delayMemo, opt Options, res *Result) error {
	c, err := loadCircuit(cc, job.Benchmark, opt.Expt.Lib)
	if err != nil {
		return err
	}
	res.Gates = len(c.Gates)

	eo := opt.Expt
	eo.Seed = job.EffectiveSeed()
	pi := expt.InputStats(c, job.Scenario, eo)

	ro := reorder.DefaultOptions()
	ro.Mode = job.Mode
	ro.Params = eo.Params
	ro.Delay = eo.Delay
	ro.Workers = opt.OptimizerWorkers
	if ro.Workers == 0 {
		ro.Workers = 1 // the job pool owns the parallelism by default
	}
	best, worst, err := reorder.BestAndWorst(c, pi, ro)
	if err != nil {
		return err
	}
	res.Changed = best.GatesChanged
	res.PowerBest = best.PowerAfter
	res.PowerWorst = worst.PowerAfter
	if worst.PowerAfter > 0 {
		res.ModelRed = (worst.PowerAfter - best.PowerAfter) / worst.PowerAfter
	}

	if opt.Simulate {
		res.SimRed, err = expt.SimReduction(c, best.Circuit, worst.Circuit, pi, job.Scenario, eo.Seed, eo)
		if err != nil {
			return err
		}
	}
	d0, err := unchangedDelay(dm, CircuitKey(job.Benchmark), c, eo.Delay)
	if err != nil {
		return err
	}
	res.DelayInc, err = expt.DelayIncreaseFrom(d0, best.Circuit, eo.Delay)
	return err
}

// ParseScenario resolves a scenario name ("A" or "B", case-insensitive).
func ParseScenario(s string) (expt.Scenario, error) {
	switch s {
	case "A", "a":
		return expt.ScenarioA, nil
	case "B", "b":
		return expt.ScenarioB, nil
	}
	return 0, fmt.Errorf("sweep: unknown scenario %q (want A or B)", s)
}

// ParseMode resolves a mode name as printed by reorder.Mode.String.
func ParseMode(s string) (reorder.Mode, error) {
	for _, m := range []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown mode %q (want full, input-only, delay-rule or delay-neutral)", s)
}

// Table renders the per-job results as an aligned text table.
func (s *Summary) Table() string {
	header := []string{"circuit", "sc", "mode", "seed", "G", "chg", "M", "S", "D", "err"}
	rows := make([][]string, 0, len(s.Results))
	for _, r := range s.Results {
		rows = append(rows, []string{
			r.Benchmark, r.Scenario, r.Mode, fmt.Sprint(r.Seed),
			fmt.Sprint(r.Gates), fmt.Sprint(r.Changed),
			fmt.Sprintf("%.1f%%", 100*r.ModelRed),
			fmt.Sprintf("%.1f%%", 100*r.SimRed),
			fmt.Sprintf("%+.1f%%", 100*r.DelayInc),
			r.Err,
		})
	}
	return expt.FormatTable(header, rows)
}

// AggregateTable renders the scenario × mode means.
func (s *Summary) AggregateTable() string {
	header := []string{"scenario", "mode", "rows", "M", "S", "D"}
	rows := make([][]string, 0, len(s.Aggregates))
	for _, a := range s.Aggregates {
		rows = append(rows, []string{
			a.Scenario, a.Mode, fmt.Sprint(a.Rows),
			fmt.Sprintf("%.1f%%", 100*a.ModelRed),
			fmt.Sprintf("%.1f%%", 100*a.SimRed),
			fmt.Sprintf("%+.1f%%", 100*a.DelayInc),
		})
	}
	return expt.FormatTable(header, rows)
}
