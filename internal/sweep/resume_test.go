package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/reorder"
	"repro/internal/store"
)

// resumeOptions is a compact sweep (8 jobs) for the durability suites.
func resumeOptions() Options {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"c17", "rca4"}
	opt.Scenarios = []expt.Scenario{expt.ScenarioA}
	opt.Modes = []reorder.Mode{reorder.Full, reorder.InputOnly}
	opt.Seeds = []int64{1, 2}
	opt.Simulate = true
	opt.Expt.HorizonA = 5e-5
	return opt
}

// normalizeStream parses a JSONL stream, zeroes timing, and sorts by job
// index — the canonical form for byte-identity-modulo-timing-and-order
// comparisons.
func normalizeStream(t *testing.T, data []byte) []Result {
	t.Helper()
	var out []Result
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		r.ElapsedMS = 0
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func openStore(t *testing.T, dir string, opt store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestKillResumeByteIdentical is the crash-safety property test: a sweep
// interrupted at an arbitrary job, its journal tail then mangled as a
// crash mid-write would, resumes from the store to a result set and
// stream byte-identical (modulo timing fields and stream order) to an
// uninterrupted run — for workers 1, 4 and GOMAXPROCS.
func TestKillResumeByteIdentical(t *testing.T) {
	base := resumeOptions()
	var cleanStream bytes.Buffer
	base.Stream = &cleanStream
	clean, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 {
		t.Fatalf("clean run failed %d jobs", clean.Failed)
	}
	wantResults := stripTiming(clean.Results)
	wantStream := normalizeStream(t, cleanStream.Bytes())

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, killAfter := range []int{1, 3, 6} {
			t.Run(fmt.Sprintf("workers=%d/kill=%d", workers, killAfter), func(t *testing.T) {
				dir := t.TempDir()
				st := openStore(t, dir, store.Options{})

				// Interrupted run: cancel once killAfter results exist.
				// In-flight jobs still finish and journal — like a real
				// crash, the exact stored set depends on scheduling, and
				// resume must not care.
				ctx, cancel := context.WithCancel(context.Background())
				opt := resumeOptions()
				opt.Workers = workers
				opt.Store = st
				seen := 0
				var mu sync.Mutex
				opt.OnResult = func(Result) {
					mu.Lock()
					defer mu.Unlock()
					if seen++; seen == killAfter {
						cancel()
					}
				}
				if _, err := Run(ctx, opt); err != context.Canceled {
					t.Fatalf("interrupted run returned %v, want context.Canceled", err)
				}
				st.Close()

				// Mangle the journal tail: a torn frame (short payload)
				// as a crash mid-append would leave. Recovery must drop
				// exactly this garbage.
				seg := filepath.Join(dir, "journal-00000000.seg")
				f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r', 't'}); err != nil {
					t.Fatal(err)
				}
				f.Close()

				// Resume: reopen the store (recovering the torn tail)
				// and finish the sweep.
				st = openStore(t, dir, store.Options{})
				defer st.Close()
				if st.Stats().DiscardedBytes == 0 {
					t.Fatal("reopen did not truncate the mangled tail")
				}
				stored := st.Len()
				if stored == 0 {
					t.Fatalf("no results journaled before the kill (killAfter=%d)", killAfter)
				}
				opt = resumeOptions()
				opt.Workers = workers
				opt.Store = st
				opt.Resume = true
				var resumedStream bytes.Buffer
				opt.Stream = &resumedStream
				s, err := Run(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if s.Resumed != stored {
					t.Fatalf("Resumed = %d, store held %d records", s.Resumed, stored)
				}
				if !reflect.DeepEqual(stripTiming(s.Results), wantResults) {
					t.Fatalf("resumed results diverge from uninterrupted run:\n%+v\nvs\n%+v",
						stripTiming(s.Results), wantResults)
				}
				if !reflect.DeepEqual(s.Aggregates, clean.Aggregates) {
					t.Fatalf("resumed aggregates diverge: %+v vs %+v", s.Aggregates, clean.Aggregates)
				}
				if got := normalizeStream(t, resumedStream.Bytes()); !reflect.DeepEqual(got, wantStream) {
					t.Fatalf("resumed stream diverges from uninterrupted stream:\n%+v\nvs\n%+v", got, wantStream)
				}
			})
		}
	}
}

// TestResumeWarmStoreRecomputesNothing: resuming over a complete journal
// replays every job and appends nothing new.
func TestResumeWarmStoreRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{})
	defer st.Close()
	opt := resumeOptions()
	opt.Store = st
	first, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	appends := st.Stats().Appends
	if int(appends) != len(first.Results) {
		t.Fatalf("journaled %d records for %d jobs", appends, len(first.Results))
	}

	opt = resumeOptions()
	opt.Store = st
	opt.Resume = true
	again, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(first.Results) {
		t.Fatalf("Resumed = %d, want %d", again.Resumed, len(first.Results))
	}
	if st.Stats().Appends != appends {
		t.Fatalf("warm resume appended %d new records", st.Stats().Appends-appends)
	}
	// Replayed results carry the original elapsed values: identical even
	// WITHOUT stripping timing.
	if !reflect.DeepEqual(first.Results, again.Results) {
		t.Fatalf("replayed results differ from originals:\n%+v\nvs\n%+v", first.Results, again.Results)
	}
}

// TestResumeMissesOnParameterChange: the content address covers engine
// parameters, so changing one (vector lanes here) must miss the store
// and recompute rather than serve stale results.
func TestResumeMissesOnParameterChange(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{})
	defer st.Close()
	opt := resumeOptions()
	opt.Store = st
	if _, err := Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}

	changed := resumeOptions()
	changed.Expt.SimVectors = 8 // was 64
	changed.Store = st
	changed.Resume = true
	s, err := Run(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if s.Resumed != 0 {
		t.Fatalf("resumed %d results across a SimVectors change", s.Resumed)
	}
}

// TestStoreKeyContract pins what the content address does and does not
// cover.
func TestStoreKeyContract(t *testing.T) {
	opt := resumeOptions()
	j := Jobs(opt)[0]

	same := j
	same.Index = 99 // shape of the sweep must not matter
	if j.StoreKey(opt) != same.StoreKey(opt) {
		t.Fatal("StoreKey depends on Job.Index")
	}

	seen := map[string]string{}
	add := func(label, key string) {
		t.Helper()
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s collides with %s", label, prev)
		}
		seen[key] = label
	}
	add("base", j.StoreKey(opt))
	alt := j
	alt.Seed = 7
	add("seed", alt.StoreKey(opt))
	alt = j
	alt.Mode = reorder.DelayNeutral
	add("mode", alt.StoreKey(opt))
	alt = j
	alt.Scenario = expt.ScenarioB
	add("scenario", alt.StoreKey(opt))
	alt = j
	alt.Benchmark = "rca4"
	add("benchmark", alt.StoreKey(opt))

	o2 := resumeOptions()
	o2.Simulate = false
	add("simulate", j.StoreKey(o2))
	o3 := resumeOptions()
	o3.Expt.SimVectors = 8
	add("vectors", j.StoreKey(o3))
	o4 := resumeOptions()
	o4.Expt.HorizonA *= 2
	add("horizon", j.StoreKey(o4))

	// Worker counts and caches are execution detail, not identity.
	o5 := resumeOptions()
	o5.Workers = 17
	o5.OptimizerWorkers = 3
	o5.Retries = 5
	if j.StoreKey(opt) != j.StoreKey(o5) {
		t.Fatal("StoreKey depends on execution-only options")
	}

	// The absolute address of one default job. Every journal on disk is
	// keyed this way: a change to any identity input (sim.Params included)
	// that moves this literal re-addresses every stored result, and must
	// come with an identityVersion bump.
	def := DefaultOptions()
	const wantKey = "24c3f45f54f53f26873d31db286d9bd0a15a8159e406635589dadb19e1e9f5fc"
	if got := Jobs(def)[0].StoreKey(def); got != wantKey {
		t.Fatalf("default job %+v StoreKey = %s, want %s", Jobs(def)[0], got, wantKey)
	}
}

// TestResumeRequiresStore: the option pairing is validated.
func TestResumeRequiresStore(t *testing.T) {
	opt := resumeOptions()
	opt.Resume = true
	if _, err := Run(context.Background(), opt); err == nil {
		t.Fatal("Resume without Store accepted")
	}
}

// TestChaosInvariance is the chaos suite's core property: under seeded
// panic/error/delay injection with retries, the sweep completes, the
// surviving jobs' results are identical to a fault-free run, and the
// failure-record set — including attempt counts — is deterministic
// across worker counts.
func TestChaosInvariance(t *testing.T) {
	base := resumeOptions()
	clean, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse("error=0.3,panic=0.25,delay=0.15,maxdelay=500us", 1996)
	if err != nil {
		t.Fatal(err)
	}
	chaosRun := func(workers int) *Summary {
		opt := resumeOptions()
		opt.Workers = workers
		opt.Faults = plan
		opt.Retries = 2
		opt.RetryBackoff = time.Millisecond
		s, err := Run(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ref := chaosRun(1)
	if ref.Retried == 0 {
		t.Fatal("chaos plan drove no retries — rates or seed need adjusting for the test to mean anything")
	}
	for _, r := range ref.Results {
		if r.Err != "" {
			continue
		}
		if !reflect.DeepEqual(stripTiming([]Result{r})[0], stripTiming([]Result{clean.Results[r.Index]})[0]) {
			t.Fatalf("surviving job %d differs from fault-free run:\n%+v\nvs\n%+v",
				r.Index, r, clean.Results[r.Index])
		}
	}

	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		s := chaosRun(workers)
		if !reflect.DeepEqual(stripTiming(s.Results), stripTiming(ref.Results)) {
			t.Fatalf("workers=%d chaos results diverge from workers=1:\n%+v\nvs\n%+v",
				workers, stripTiming(s.Results), stripTiming(ref.Results))
		}
		if !reflect.DeepEqual(s.Failures, ref.Failures) {
			t.Fatalf("workers=%d failure records diverge:\n%+v\nvs\n%+v", workers, s.Failures, ref.Failures)
		}
		if s.Retried != ref.Retried {
			t.Fatalf("workers=%d Retried = %d, want %d", workers, s.Retried, ref.Retried)
		}
	}
}

// TestChaosPanicsProduceFailureRecords: with certain panics and no
// retries, every job yields a structured "panic" failure record and the
// sweep still completes.
func TestChaosPanicsProduceFailureRecords(t *testing.T) {
	plan, err := faults.Parse("panic=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := resumeOptions()
	opt.Workers = 4
	opt.Faults = plan
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != len(s.Results) || len(s.Failures) != len(s.Results) {
		t.Fatalf("Failed=%d Failures=%d of %d jobs under panic=1", s.Failed, len(s.Failures), len(s.Results))
	}
	for i, f := range s.Failures {
		if f.Kind != "panic" || f.Attempts != 1 || f.Error == "" {
			t.Fatalf("failure %d = %+v, want kind=panic attempts=1", i, f)
		}
		if f.Index != s.Results[f.Index].Index || s.Results[f.Index].FailKind != "panic" {
			t.Fatalf("failure %d does not match its result row", i)
		}
	}
}

// TestChaosRetryRecovers: a transient error on attempt 1 with retries
// enabled must not surface as a failure.
func TestChaosRetryRecovers(t *testing.T) {
	plan, err := faults.Parse("error=0.5", 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := resumeOptions()
	opt.Faults = plan
	opt.Retries = 10
	opt.RetryBackoff = time.Millisecond
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != 0 {
		t.Fatalf("%d jobs failed with 10 retries at error rate 0.5 (seeded: adjust seed or retries)", s.Failed)
	}
	if s.Retried == 0 {
		t.Fatal("no retries recorded at error rate 0.5")
	}
}

// TestChaosNonRetryableError: business errors (unknown benchmark) fail
// on attempt 1 even with retries configured.
func TestChaosNonRetryableError(t *testing.T) {
	opt := resumeOptions()
	opt.Benchmarks = []string{"no-such-benchmark"}
	opt.Retries = 5
	opt.RetryBackoff = time.Millisecond
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Retried != 0 {
		t.Fatalf("retried a non-retryable failure %d times", s.Retried)
	}
	for _, f := range s.Failures {
		if f.Attempts != 1 || f.Kind != "error" {
			t.Fatalf("failure %+v, want attempts=1 kind=error", f)
		}
	}
}

// TestChaosStoreTornWrites: with torn-write injection in the store's
// writer, the sweep's results are unaffected, every acknowledged record
// survives reopen intact, and a resume over the chaos-written journal
// reproduces the clean run exactly.
func TestChaosStoreTornWrites(t *testing.T) {
	base := resumeOptions()
	clean, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse("torn=0.4,delay=0.1,maxdelay=300us", 23)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{Faults: plan})
	opt := resumeOptions()
	opt.Workers = 4
	opt.Store = st
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(s.Results), stripTiming(clean.Results)) {
		t.Fatal("store chaos changed sweep results")
	}
	if st.Stats().TornWrites == 0 {
		t.Fatal("no torn writes injected at rate 0.4")
	}
	if s.StoreErrors != 0 {
		// 4 bounded put attempts at torn rate 0.4 leave ~2.6% of jobs
		// unjournaled; with this seed none should be. If the seed ever
		// changes and some are, resume below still must recompute them.
		t.Logf("store errors: %d (results unaffected)", s.StoreErrors)
	}
	st.Close()

	// Reopen: recovery must find only whole, acknowledged records.
	st = openStore(t, dir, store.Options{})
	defer st.Close()
	if tb := st.Stats().DiscardedBytes; tb != 0 {
		t.Fatalf("torn-write repairs leaked %d bytes into the journal", tb)
	}
	ropt := resumeOptions()
	ropt.Store = st
	ropt.Resume = true
	resumed, err := Run(context.Background(), ropt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(resumed.Results), stripTiming(clean.Results)) {
		t.Fatal("resume over chaos-written journal diverged from clean run")
	}
	if resumed.Resumed == 0 {
		t.Fatal("nothing resumed from the chaos-written journal")
	}
}

// TestFailureRecordsNotJournaled: only successes persist — a resume
// after failures retries them rather than replaying the failure.
func TestFailureRecordsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{})
	defer st.Close()
	plan, err := faults.Parse("error=1", 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := resumeOptions()
	opt.Store = st
	opt.Faults = plan
	s, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != len(s.Results) {
		t.Fatalf("error=1 failed only %d of %d", s.Failed, len(s.Results))
	}
	if st.Len() != 0 {
		t.Fatalf("journal holds %d records of failed jobs", st.Len())
	}

	// Resume without faults: every job recomputes and succeeds.
	opt = resumeOptions()
	opt.Store = st
	opt.Resume = true
	s, err = Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Resumed != 0 || s.Failed != 0 {
		t.Fatalf("post-failure resume: Resumed=%d Failed=%d, want 0/0", s.Resumed, s.Failed)
	}
}
