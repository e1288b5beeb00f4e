package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/expt"
	"repro/internal/reorder"
)

// smallOptions keeps the sweep fast enough for -race: two real (embedded)
// benchmarks, short horizons.
func smallOptions() Options {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"c17", "rca4"}
	opt.Scenarios = []expt.Scenario{expt.ScenarioA, expt.ScenarioB}
	opt.Modes = []reorder.Mode{reorder.Full, reorder.InputOnly}
	opt.Seeds = []int64{1, 2}
	opt.Simulate = true
	opt.Expt.HorizonA = 5e-5
	opt.Expt.CyclesB = 200
	return opt
}

// stripTiming zeroes the wall-clock field, the only legitimately
// nondeterministic part of a result.
func stripTiming(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].ElapsedMS = 0
	}
	return out
}

// TestRunDeterministicAcrossWorkers is both the determinism check and the
// worker-pool race test: under `go test -race` the 8-worker run exercises
// the pool's sharing, and its results must equal the sequential run
// field-for-field.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	opt := smallOptions()
	opt.Workers = 1
	seq, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != 16 {
		t.Fatalf("expected 16 jobs, got %d", len(seq.Results))
	}
	if seq.Failed != 0 {
		t.Fatalf("sequential run failed %d jobs: %+v", seq.Failed, seq.Results)
	}
	opt = smallOptions()
	opt.Workers = 8
	par, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(seq.Results), stripTiming(par.Results)) {
		t.Fatalf("parallel results differ from sequential:\nseq: %+v\npar: %+v", seq.Results, par.Results)
	}
	if !reflect.DeepEqual(seq.Aggregates, par.Aggregates) {
		t.Fatalf("aggregates differ:\nseq: %+v\npar: %+v", seq.Aggregates, par.Aggregates)
	}
}

// TestRunDeterministicAcrossOptimizerWorkers pins the nested-parallelism
// contract: turning on the per-job optimizer candidate-search pool (the
// reorder construction wavefront) must not change a single result field
// relative to the default serial per-job optimization.
func TestRunDeterministicAcrossOptimizerWorkers(t *testing.T) {
	opt := smallOptions()
	opt.Workers = 2
	base, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Failed != 0 {
		t.Fatalf("baseline run failed %d jobs", base.Failed)
	}
	opt = smallOptions()
	opt.Workers = 2
	opt.OptimizerWorkers = 4
	nested, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(base.Results), stripTiming(nested.Results)) {
		t.Fatalf("optimizer-parallel results differ from serial:\nserial: %+v\nnested: %+v",
			base.Results, nested.Results)
	}
}

// TestRunStreamsJSONL checks that every job is emitted exactly once as a
// parseable JSON line and that OnResult sees the same set, even with the
// pool racing on the shared encoder.
func TestRunStreamsJSONL(t *testing.T) {
	opt := smallOptions()
	opt.Workers = 4
	var buf bytes.Buffer
	var mu sync.Mutex
	seen := map[int]bool{}
	opt.Stream = &buf
	opt.OnResult = func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if seen[r.Index] {
			t.Errorf("result %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(s.Results) {
		t.Fatalf("OnResult saw %d results, want %d", len(seen), len(s.Results))
	}
	var indices []int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		indices = append(indices, r.Index)
	}
	sort.Ints(indices)
	if len(indices) != len(s.Results) {
		t.Fatalf("stream has %d lines, want %d", len(indices), len(s.Results))
	}
	for i, idx := range indices {
		if i != idx {
			t.Fatalf("stream indices %v are not a permutation of the job order", indices)
		}
	}
}

// TestRunCancellation: a pre-canceled context aborts before doing work.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := smallOptions()
	if _, err := Run(ctx, opt); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunRecordsPerJobErrors: an unknown benchmark fails its own jobs
// without aborting the sweep.
func TestRunRecordsPerJobErrors(t *testing.T) {
	opt := smallOptions()
	opt.Benchmarks = []string{"c17", "no-such-benchmark"}
	opt.Modes = []reorder.Mode{reorder.Full}
	opt.Seeds = []int64{1}
	opt.Workers = 2
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != 2 { // two scenarios of the bad benchmark
		t.Fatalf("Failed = %d, want 2", s.Failed)
	}
	for _, r := range s.Results {
		if r.Benchmark == "no-such-benchmark" && r.Err == "" {
			t.Fatalf("job %d on bad benchmark reported no error", r.Index)
		}
		if r.Benchmark == "c17" && r.Err != "" {
			t.Fatalf("good job %d failed: %s", r.Index, r.Err)
		}
	}
}

// TestEffectiveSeedsDistinct: no two jobs of a realistic sweep share an
// RNG stream.
func TestEffectiveSeedsDistinct(t *testing.T) {
	opt := DefaultOptions()
	opt.Modes = []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral}
	opt.Seeds = []int64{1, 2, 3}
	jobs := Jobs(opt)
	seen := map[int64]Job{}
	for _, j := range jobs {
		s := j.EffectiveSeed()
		if prev, dup := seen[s]; dup {
			t.Fatalf("jobs %+v and %+v share effective seed %d", prev, j, s)
		}
		seen[s] = j
	}
}

// TestDelayNeutralModeNeverSlower: sweeping the delay-neutral mode must
// report no delay increase anywhere, by construction.
func TestDelayNeutralModeNeverSlower(t *testing.T) {
	opt := smallOptions()
	opt.Modes = []reorder.Mode{reorder.DelayNeutral}
	opt.Seeds = []int64{1}
	opt.Simulate = false
	opt.Workers = 2
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Results {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", r.Index, r.Err)
		}
		if r.DelayInc > 1e-9 {
			t.Fatalf("delay-neutral job %d slowed %s by %.3g", r.Index, r.Benchmark, r.DelayInc)
		}
	}
}

// TestParseHelpers round-trips every mode and scenario name.
func TestParseHelpers(t *testing.T) {
	for _, m := range []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus")
	}
	for _, sc := range []expt.Scenario{expt.ScenarioA, expt.ScenarioB} {
		got, err := ParseScenario(sc.String())
		if err != nil || got != sc {
			t.Fatalf("ParseScenario(%q) = %v, %v", sc.String(), got, err)
		}
	}
	if _, err := ParseScenario("C"); err == nil {
		t.Fatal("ParseScenario accepted C")
	}
}

// TestSharedCacheEquivalence pins the cache retrofit: a sweep on a
// shared, pre-warmed cross-run cache (the HTTP service's configuration)
// returns results field-identical to a sweep on a private cold cache, and
// the warm run reloads nothing.
func TestSharedCacheEquivalence(t *testing.T) {
	opt := smallOptions()
	opt.Workers = 4
	private, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	shared := NewCircuitCache(32)
	warm := smallOptions()
	warm.Workers = 4
	warm.Cache = shared
	if _, err := Run(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	loadsAfterFirst := shared.Stats().Misses
	if loadsAfterFirst != 2 {
		t.Fatalf("first shared run loaded %d circuits, want 2 (one per benchmark)", loadsAfterFirst)
	}

	again, err := Run(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.Misses != loadsAfterFirst {
		t.Fatalf("warm re-run loaded %d new circuits, want 0", st.Misses-loadsAfterFirst)
	}
	if st.Hits == 0 {
		t.Fatal("warm re-run recorded no cache hits")
	}
	if !reflect.DeepEqual(stripTiming(private.Results), stripTiming(again.Results)) {
		t.Fatalf("shared-cache results diverge from private-cache results:\n%+v\nvs\n%+v",
			stripTiming(again.Results), stripTiming(private.Results))
	}
	if !reflect.DeepEqual(private.Aggregates, again.Aggregates) {
		t.Fatalf("aggregates diverge: %+v vs %+v", again.Aggregates, private.Aggregates)
	}
}

// TestSweepDelayMemo holds Run, which computes each unchanged circuit's
// delay once per run, to per-job ExecuteJob calls, which compute it in
// every job: over every mode and both scenarios the JSONL rows must
// match byte for byte once the wall-clock field is dropped.
func TestSweepDelayMemo(t *testing.T) {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"c17", "rca8", "cm138a"}
	opt.Modes = []reorder.Mode{reorder.Full, reorder.InputOnly, reorder.DelayRule, reorder.DelayNeutral}
	opt.Seeds = []int64{1, 2}
	opt.Simulate = false
	opt.Workers = 3
	var stream bytes.Buffer
	opt.Stream = &stream
	if _, err := Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	sc := bufio.NewScanner(&stream)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		r.ElapsedMS = 0
		line, _ := json.Marshal(r)
		got[r.Index] = string(line)
	}
	opt.Stream = nil
	jobs := Jobs(opt)
	if len(got) != len(jobs) {
		t.Fatalf("run streamed %d rows, want %d", len(got), len(jobs))
	}
	cc := NewCircuitCache(0)
	moved := 0
	for _, j := range jobs {
		r, _ := ExecuteJob(context.Background(), j, j.StoreKey(opt), cc, opt)
		if r.Err != "" {
			t.Fatalf("job %d: %s", j.Index, r.Err)
		}
		if r.DelayInc != 0 {
			moved++
		}
		r.ElapsedMS = 0
		line, _ := json.Marshal(r)
		if string(line) != got[j.Index] {
			t.Fatalf("job %d:\nRun:        %s\nExecuteJob: %s", j.Index, got[j.Index], line)
		}
	}
	if moved == 0 {
		t.Fatal("every job's delay increase is 0: the comparison shows nothing")
	}
}
