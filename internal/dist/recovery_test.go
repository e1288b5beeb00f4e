package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/httpapi"
	"repro/internal/reorder"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestTrackerRenewAtExactTTLBoundary pins the renew/expire race at
// exactly the TTL boundary: expiry is exclusive, so a renewal arriving
// at deadline+0 loses definitively — the worker sees lease-lost, the
// jobs are re-grantable exactly once, and there is no window in which
// both the original holder and a replacement believe they own the
// range.
func TestTrackerRenewAtExactTTLBoundary(t *testing.T) {
	const ttl = 10 * time.Second

	// One nanosecond inside the deadline the renewal wins and nothing
	// is reclaimable.
	clock := &fakeClock{t: time.Unix(1000, 0)}
	jobs, keys := testJobs(2)
	tr := newTracker(jobs, keys, ttl, 2, clock.now)
	l, _ := tr.grant("w1")
	clock.advance(ttl - time.Nanosecond)
	if !tr.renew(l.id) {
		t.Fatal("renew inside the TTL refused")
	}
	if l2, done := tr.grant("w2"); l2 != nil || done {
		t.Fatalf("jobs leaked from a live lease: %+v done=%v", l2, done)
	}

	// At exactly the boundary the race resolves against the renewal:
	// renew's own lazy-expiry sweep runs first, so the worker observes
	// definitive lease-lost.
	clock = &fakeClock{t: time.Unix(1000, 0)}
	tr = newTracker(jobs, keys, ttl, 2, clock.now)
	l, _ = tr.grant("w1")
	clock.advance(ttl)
	if tr.renew(l.id) {
		t.Fatal("renew at exactly the TTL boundary must lose")
	}
	_, _, expired, _ := tr.counters()
	if expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}

	// The jobs are re-grantable exactly once, under a fresh lease ID.
	l2, _ := tr.grant("w2")
	if l2 == nil || len(l2.jobs) != 2 {
		t.Fatalf("reclaimed jobs not re-grantable: %+v", l2)
	}
	if l2.id == l.id {
		t.Fatal("dead lease ID reissued")
	}
	if l3, done := tr.grant("w3"); l3 != nil || done {
		t.Fatalf("double grant: %+v done=%v", l3, done)
	}

	// The loser's lingering handle is inert: renew keeps failing and a
	// late release cannot yank the jobs from the new owner.
	if tr.renew(l.id) {
		t.Fatal("dead lease renewed after reassignment")
	}
	tr.release(l.id)
	if st := tr.status(); st.Leased != 2 || st.Pending != 0 {
		t.Fatalf("dead release disturbed the new owner: %+v", st)
	}
}

// TestTrackerQuarantine covers the poison-job policy: strikes across
// two distinct workers quarantine at the threshold, a single-worker
// fleet needs double the strikes, quarantine counts toward completion,
// and a late delivery never resurrects a quarantined job's state.
func TestTrackerQuarantine(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	jobs, keys := testJobs(3)
	tr := newTracker(jobs, keys, time.Minute, 1, clock.now)
	tr.policy.quarantineAfter = 2

	var journaled []string
	tr.journal = func(key string, v any) { journaled = append(journaled, key) }

	fail := sweep.Result{Err: "boom", FailKind: "error"}

	// Strike 1 (worker A): the job returns to pending for another try.
	l, _ := tr.grant("wA")
	idx := l.jobs[0]
	tr.markFailed(idx, "wA", &fail)
	if st := tr.status(); st.Quarantined != 0 || st.Pending != 3 {
		t.Fatalf("after one strike: %+v", st)
	}
	tr.release(l.id)

	// Strike 2 from the same worker: still not quarantined (one broken
	// environment must not kill a job the fleet could compute).
	l, _ = tr.grant("wA")
	if l.jobs[0] != idx {
		t.Fatalf("expected job %d re-leased first, got %d", idx, l.jobs[0])
	}
	tr.markFailed(idx, "wA", &fail)
	if st := tr.status(); st.Quarantined != 0 {
		t.Fatalf("quarantined on a single worker's strikes: %+v", st)
	}
	tr.release(l.id)

	// Strike 3 (worker B, distinct): threshold reached → quarantined.
	l, _ = tr.grant("wB")
	tr.markFailed(idx, "wB", &fail)
	if st := tr.status(); st.Quarantined != 1 || st.Pending != 2 {
		t.Fatalf("after distinct-worker strike: %+v", st)
	}
	recs := tr.quarantineRecords()
	if len(recs) != 1 || recs[idx].Strikes != 3 || len(recs[idx].Workers) != 2 {
		t.Fatalf("quarantine record: %+v", recs)
	}
	if !strings.Contains(strings.Join(journaled, " "), journalPrefixQuarant+keys[idx]) {
		t.Fatalf("quarantine verdict not journaled: %v", journaled)
	}

	// Quarantine counts toward completion, and a late delivery for the
	// quarantined job is absorbed without a state change.
	tr.release(l.id)
	for i := range jobs {
		if i != idx {
			l, _ := tr.grant("wB")
			tr.markDone(l.jobs[0], nil)
			tr.release(l.id)
		}
	}
	select {
	case <-tr.doneCh:
	default:
		t.Fatalf("sweep incomplete with all jobs done or quarantined: %+v", tr.status())
	}
	if tr.markDone(idx, nil) {
		t.Fatal("late delivery flipped a quarantined job to done")
	}
	if st := tr.status(); st.Quarantined != 1 || st.Done != 2 {
		t.Fatalf("final: %+v", st)
	}

	// Single-worker escape hatch: 2× the threshold quarantines even
	// without a second worker.
	tr2 := newTracker(jobs, keys, time.Minute, 1, clock.now)
	tr2.policy.quarantineAfter = 2
	for i := 0; i < 4; i++ {
		l, _ := tr2.grant("only")
		tr2.markFailed(l.jobs[0], "only", &fail)
		tr2.release(l.id)
	}
	if st := tr2.status(); st.Quarantined != 1 {
		t.Fatalf("single-worker escape: %+v", st)
	}

	// Policy off: a delivered terminal failure completes the job
	// immediately, the pre-quarantine behavior.
	tr3 := newTracker(jobs, keys, time.Minute, 1, clock.now)
	l3, _ := tr3.grant("w")
	tr3.markFailed(l3.jobs[0], "w", &fail)
	if st := tr3.status(); st.Done != 1 || st.Failed != 1 || st.Quarantined != 0 {
		t.Fatalf("quarantine-off failure: %+v", st)
	}
}

// TestTrackerSpeculation: a lease that keeps renewing but outlives the
// straggler threshold has its unfinished jobs re-granted; the lease
// itself survives, the duplicate execution is absorbed, and the lease
// is never speculated twice.
func TestTrackerSpeculation(t *testing.T) {
	clock := &fakeClock{t: time.Unix(5000, 0)}
	jobs, keys := testJobs(4)
	tr := newTracker(jobs, keys, 10*time.Second, 1, clock.now)
	tr.policy.speculateFactor = 1
	tr.policy.speculateMinLeases = 2

	straggler, _ := tr.grant("slow")
	idx := straggler.jobs[0]

	// Two quick leases complete, seeding the p95.
	for i := 0; i < 2; i++ {
		l, _ := tr.grant("fast")
		clock.advance(time.Second)
		tr.markDone(l.jobs[0], nil)
		tr.release(l.id)
	}
	if _, _, _, spec := tr.counters(); spec != 0 {
		t.Fatalf("speculated early: %d", spec)
	}

	// Keep the straggler renewed across the threshold: age 10.5s >
	// max(ttl 10s, 1 × p95 1s), but expiry never lapses.
	clock.advance(7 * time.Second) // age 9s
	if !tr.renew(straggler.id) {
		t.Fatal("straggler renewal refused")
	}
	clock.advance(1500 * time.Millisecond) // age 10.5s, expiry 19s
	st := tr.status()                      // any entry point runs the straggler sweep
	if _, _, _, spec := tr.counters(); spec != 1 {
		t.Fatalf("speculated = %d, want 1 (status %+v)", spec, st)
	}
	if st.Pending != 2 { // straggler's job + the one never leased
		t.Fatalf("straggler's job not returned: %+v", st)
	}
	if !tr.renew(straggler.id) {
		t.Fatal("speculation killed the straggler's lease")
	}

	// The job lands on a second worker; whoever finishes first wins and
	// the straggler is never re-speculated.
	l2, _ := tr.grant("second")
	if l2.jobs[0] != idx {
		t.Fatalf("speculative grant got job %d, want %d", l2.jobs[0], idx)
	}
	tr.markDone(idx, nil)
	tr.release(l2.id)
	tr.status()
	if _, _, _, spec := tr.counters(); spec != 1 {
		t.Fatalf("straggler speculated twice: %d", spec)
	}
	tr.release(straggler.id) // its eventual upload releases normally
	if st := tr.status(); st.Done != 3 || st.Workers != 0 {
		t.Fatalf("final: %+v", st)
	}
}

// journaledSweep is a 2-job matrix small enough for surgical journal
// tests.
func journaledSweep() sweep.Options {
	opt := sweep.DefaultOptions()
	opt.Benchmarks = []string{"c17"}
	opt.Scenarios = []expt.Scenario{expt.ScenarioA}
	opt.Modes = []reorder.Mode{reorder.Full}
	opt.Seeds = []int64{1, 2}
	opt.Simulate = false
	return opt
}

// TestCoordinatorJournalRebuild: a restarted coordinator pointed at the
// same journal rebuilds its tracker exactly — strikes and quarantines
// persist, an unexpired lease is honored for the same worker, dead
// lease IDs are never reissued, and the restart is counted. A journal
// from a different sweep definition is refused.
func TestCoordinatorJournalRebuild(t *testing.T) {
	dir := t.TempDir()
	opt := journaledSweep()
	clock := &fakeClock{t: time.Unix(9000, 0)}

	open := func() (*store.Store, *store.Store) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st, j
	}

	st, j := open()
	c1, err := NewCoordinator(CoordinatorConfig{
		Sweep: opt, Store: st, Journal: j,
		LeaseTTL: time.Minute, ChunkSize: 1, QuarantineAfter: 2, now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c1.restarts != 0 {
		t.Fatalf("fresh journal counted %d restarts", c1.restarts)
	}

	// One strike on job 0, then a live lease on it for w1.
	l0, _ := c1.tracker.grant("wX")
	c1.tracker.markFailed(l0.jobs[0], "wX", &sweep.Result{Err: "boom"})
	c1.tracker.release(l0.id)
	live, _ := c1.tracker.grant("w1")

	// Crash: nothing released, stores reopened from disk.
	st.Close()
	j.Close()
	clock.advance(10 * time.Second) // inside the lease TTL

	st, j = open()
	c2, err := NewCoordinator(CoordinatorConfig{
		Sweep: opt, Store: st, Journal: j,
		LeaseTTL: time.Minute, ChunkSize: 1, QuarantineAfter: 2, now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c2.restarts != 1 {
		t.Fatalf("restarts = %d, want 1", c2.restarts)
	}
	// The live lease is honored: same ID, same worker, renewable.
	if !c2.tracker.renew(live.id) {
		t.Fatal("journaled live lease not honored after restart")
	}
	// Release it so the struck job is re-grantable, and check fresh
	// grants never reuse a journaled ID, dead or alive.
	c2.tracker.release(live.id)
	l2, _ := c2.tracker.grant("w2")
	if l2 == nil || l2.id == live.id || l2.id == l0.id {
		t.Fatalf("lease ID reuse after rebuild: %+v (live %s, dead %s)", l2, live.id, l0.id)
	}
	if l2.jobs[0] != l0.jobs[0] {
		t.Fatalf("expected the struck job %d re-leased first, got %d", l0.jobs[0], l2.jobs[0])
	}
	// The strike survived: one more failure from a distinct worker
	// quarantines (count 2, workers 2) — proof the count was restored.
	c2.tracker.markFailed(l2.jobs[0], "w2", &sweep.Result{Err: "boom"})
	if st := c2.Status(); st.Quarantined != 1 {
		t.Fatalf("restored strike not counted: %+v", st)
	}

	// Third generation: the quarantine itself must persist.
	st.Close()
	j.Close()
	st2, j2 := open()
	c3, err := NewCoordinator(CoordinatorConfig{
		Sweep: opt, Store: st2, Journal: j2,
		LeaseTTL: time.Minute, ChunkSize: 1, QuarantineAfter: 2, now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c3.Status(); st.Quarantined != 1 || c3.restarts != 2 {
		t.Fatalf("generation 3: %+v restarts=%d", st, c3.restarts)
	}

	// A journal pinned to one sweep refuses a different definition.
	st2.Close()
	j2.Close()
	st3, j3 := open()
	defer st3.Close()
	defer j3.Close()
	other := opt
	other.Seeds = []int64{7, 8}
	if _, err := NewCoordinator(CoordinatorConfig{
		Sweep: other, Store: st3, Journal: j3, now: clock.now,
	}); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("mismatched journal accepted: %v", err)
	}
}

// TestWorkerSpillAndRedeliver: a coordinator that stops accepting
// uploads mid-lease forces the worker to spill its finished records,
// reconnect (config revalidation succeeds — same sweep), and re-deliver
// the spill once uploads heal. Nothing is recomputed and nothing is
// lost.
func TestWorkerSpillAndRedeliver(t *testing.T) {
	opt := chaosSweep()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c, err := NewCoordinator(CoordinatorConfig{Sweep: opt, Store: st, LeaseTTL: 5 * time.Second, ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	var failUploads atomic.Bool
	var rejected atomic.Int64
	failUploads.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failUploads.Load() && r.URL.Path == PathUpload {
			rejected.Add(1)
			httpapi.WriteError(w, httpapi.Errorf(503, "unavailable", "uploads disabled"))
			return
		}
		c.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// Heal uploads once the worker has demonstrably spilled: the first
	// burst of rejections is the original upload's retry budget, the
	// next is a redelivery attempt after a reconnect.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for rejected.Load() < 4 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		failUploads.Store(false)
	}()

	stats, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: ts.URL, ID: "w", RPCRetries: 2, RPCBackoff: time.Millisecond,
		ReconnectTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("worker: %v (%+v)", err, stats)
	}
	if stats.Spilled < 2 || stats.Redelivered != stats.Spilled {
		t.Fatalf("spill/redeliver: %+v", stats)
	}
	if stats.Reconnects < 1 {
		t.Fatalf("no reconnect recorded: %+v", stats)
	}
	if stats.Uploaded != 8 || st.Stats().Records != 8 {
		t.Fatalf("sweep incomplete after redelivery: %+v, %d records", stats, st.Stats().Records)
	}
	select {
	case <-c.Done():
	default:
		t.Fatalf("coordinator incomplete: %+v", c.Status())
	}
	if c.reconnects.Load() < 1 {
		t.Fatal("coordinator never saw the reconnect flag")
	}
}

// TestWorkerReconnectRejectsDifferentSweep: a coordinator that comes
// back serving a different sweep definition must be refused — mixing
// results across definitions would corrupt the store.
func TestWorkerReconnectRejectsDifferentSweep(t *testing.T) {
	optA := chaosSweep()
	optB := chaosSweep()
	optB.Seeds = []int64{7, 8}

	stA, _ := store.Open(t.TempDir(), store.Options{})
	defer stA.Close()
	cA, err := NewCoordinator(CoordinatorConfig{Sweep: optA, Store: stA})
	if err != nil {
		t.Fatal(err)
	}
	stB, _ := store.Open(t.TempDir(), store.Options{})
	defer stB.Close()
	cB, err := NewCoordinator(CoordinatorConfig{Sweep: optB, Store: stB})
	if err != nil {
		t.Fatal(err)
	}

	// Serve A's config; at the first lease, go "down" for everything
	// except config — which now answers with B's sweep. The worker's
	// reconnect probe must spot the impostor.
	var swapped atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !swapped.Load() {
			if r.URL.Path == PathLease {
				swapped.Store(true)
				httpapi.WriteError(w, httpapi.Errorf(503, "unavailable", "restarting"))
				return
			}
			cA.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == PathConfig {
			cB.ServeHTTP(w, r)
			return
		}
		httpapi.WriteError(w, httpapi.Errorf(503, "unavailable", "restarting"))
	}))
	defer ts.Close()

	_, err = RunWorker(context.Background(), WorkerConfig{
		Coordinator: ts.URL, ID: "w", RPCRetries: 0, RPCBackoff: time.Millisecond,
		ReconnectTimeout: 30 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("config-hash mismatch not fatal: %v", err)
	}
}

// manualWorker builds the raw-protocol worker used to drive leases by
// hand (the same pattern as the zombie in the chaos test).
func manualWorker(t *testing.T, base string, client *http.Client, id string) *worker {
	t.Helper()
	zw := &worker{
		cfg:    WorkerConfig{RPCRetries: 8, RPCBackoff: 5 * time.Millisecond, ID: id, Logf: func(string, ...any) {}},
		client: client, base: base, cc: sweep.NewCircuitCache(0),
	}
	var wireCfg SweepConfig
	if err := zw.get(context.Background(), PathConfig, &wireCfg); err != nil {
		t.Fatal(err)
	}
	opt, err := wireCfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	zw.opt = opt
	return zw
}

// lastSegment returns the newest journal segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestJournalPrefixReplayProperty (property test): replaying ANY byte
// prefix of the coordinator journal and resuming the sweep yields the
// same final merged store as an uninterrupted run. Truncation points
// are sampled with the internal/gen seeding discipline; mid-frame cuts
// exercise the store's torn-tail repair, whole-frame cuts exercise
// partial state loss (a lost lease record costs at most a re-lease,
// never a wrong result).
func TestJournalPrefixReplayProperty(t *testing.T) {
	opt := chaosSweep()
	clean, err := sweep.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	// Build a mid-sweep snapshot: 2 delivered leases, 1 abandoned lease
	// left live in the journal.
	srcDir := t.TempDir()
	st, err := store.Open(srcDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(srcDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Sweep: opt, Store: st, Journal: j, LeaseTTL: 500 * time.Millisecond, ChunkSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	mw := manualWorker(t, ts.URL, ts.Client(), "partial")
	for i := 0; i < 2; i++ {
		var lease LeaseResponse
		if err := mw.post(context.Background(), PathLease, siteLease, fmt.Sprint(i), func(int) any {
			return LeaseRequest{Worker: "partial"}
		}, &lease); err != nil {
			t.Fatal(err)
		}
		var records []UploadRecord
		for _, spec := range lease.Jobs {
			rec, _, err := mw.runJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, rec)
		}
		var upResp UploadResponse
		if err := mw.post(context.Background(), PathUpload, siteUpload, lease.LeaseID, func(attempt int) any {
			return UploadRequest{Worker: "partial", LeaseID: lease.LeaseID, Attempt: attempt, Results: records}
		}, &upResp); err != nil {
			t.Fatal(err)
		}
	}
	var abandoned LeaseResponse
	if err := mw.post(context.Background(), PathLease, siteLease, "abandoned", func(int) any {
		return LeaseRequest{Worker: "ghost"}
	}, &abandoned); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	st.Close()
	j.Close()

	resultSeg := lastSegment(t, srcDir)
	resultBytes, err := os.ReadFile(resultSeg)
	if err != nil {
		t.Fatal(err)
	}
	journalSeg := lastSegment(t, JournalDir(srcDir))
	journalBytes, err := os.ReadFile(journalSeg)
	if err != nil {
		t.Fatal(err)
	}

	// Sampled prefixes, plus the two edges (empty journal, full
	// journal). gen.DeriveSeed keeps the sample deterministic without a
	// global RNG.
	offsets := []int{0, len(journalBytes)}
	for i := 0; i < 6; i++ {
		s := gen.DeriveSeed(1996, "journal-prefix", fmt.Sprint(i))
		if s < 0 {
			s = -s
		}
		offsets = append(offsets, int(s%int64(len(journalBytes)+1)))
	}

	for _, cut := range offsets {
		cut := cut
		t.Run(fmt.Sprintf("prefix-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(resultSeg)), resultBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(JournalDir(dir), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(JournalDir(dir), filepath.Base(journalSeg)), journalBytes[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			j, err := OpenJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			c, err := NewCoordinator(CoordinatorConfig{
				Sweep: opt, Store: st, Journal: j, LeaseTTL: 500 * time.Millisecond, ChunkSize: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(c)
			defer ts.Close()
			if _, err := RunWorker(context.Background(), WorkerConfig{
				Coordinator: ts.URL, ID: "resumer", RPCBackoff: 5 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-c.Done():
			default:
				t.Fatalf("resume from prefix %d incomplete: %+v", cut, c.Status())
			}
			got, err := c.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeResults(got.Results), normalizeResults(clean.Results)) {
				t.Fatalf("prefix %d diverged from the uninterrupted run", cut)
			}
		})
	}
}

// metricValue extracts one sample from a Prometheus text exposition.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s absent:\n%s", name, metrics)
	return 0
}

// TestChaosCoordinatorKillRestartMidSweep is the acceptance chaos run
// for coordinator crash-safety. Mid-sweep, with torn writes injected
// into the coordinator state journal:
//
//   - the coordinator is killed (server torn down, stores abandoned,
//     garbage appended to both journals' tails to simulate a mid-frame
//     crash) and restarted against the same -store;
//   - one worker is killed (a lease that never heartbeats);
//   - one worker straggles (renews forever, never uploads) until the
//     straggler policy re-grants its job;
//   - one job is poison (a shared fault plan fails it deterministically
//     on every worker) until quarantine excludes it;
//   - the surviving workers spill, reconnect, revalidate the config and
//     redeliver across the outage.
//
// The merged store must end byte-identical (modulo elapsed_ms) to a
// clean single-process sweep, with the quarantine and the speculative
// re-execution visible in the restarted coordinator's metrics.
func TestChaosCoordinatorKillRestartMidSweep(t *testing.T) {
	opt := chaosSweep()
	opt.Modes = []reorder.Mode{reorder.Full} // explicit: the poison scan needs final store keys
	clean, err := sweep.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	jobs := sweep.Jobs(opt)
	keys := make([]string, len(jobs))
	for i, jb := range jobs {
		keys[i] = jb.StoreKey(opt)
	}

	// Scan for a fault-plan seed that poisons exactly one job: the
	// sweep/job site is keyed by content key, so the same job fails on
	// every worker sharing the plan. Index >= 2 keeps the poison job out
	// of the straggler's and the killed worker's hands below.
	var poisonPlan *faults.Plan
	poisonKey := ""
	for seed := int64(0); seed < 10000; seed++ {
		plan, err := faults.Parse("error=0.1", seed)
		if err != nil {
			t.Fatal(err)
		}
		hit := -1
		hits := 0
		for i, k := range keys {
			if plan.Decide("sweep/job", k, 1) == faults.Error {
				hit, hits = i, hits+1
			}
		}
		if hits == 1 && hit >= 2 {
			poisonPlan, poisonKey = plan, keys[hit]
			break
		}
	}
	if poisonPlan == nil {
		t.Fatal("no seed poisons exactly one job at index >= 2")
	}

	dir := t.TempDir()
	journalPlan, err := faults.Parse("error=0.1,torn=0.15", 77)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 3 * time.Second
	newCoord := func() (*Coordinator, *store.Store, *store.Store) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, journalPlan)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(CoordinatorConfig{
			Sweep: opt, Store: st, Journal: j,
			LeaseTTL: ttl, ChunkSize: 1, QuarantineAfter: 2, SpeculateFactor: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, st, j
	}

	c1, st1, j1 := newCoord()

	// Generation 1 serves on a fixed address so the restarted
	// coordinator is reachable at the same URL the workers hold. A gate
	// stops accepting uploads after the first two, guaranteeing the
	// kill lands mid-sweep with workers holding spilled results.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	url := "http://" + addr
	var gateArmed atomic.Bool
	var uploadsPassed, uploadsRejected atomic.Int64
	srv1 := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathUpload && gateArmed.Load() {
			if uploadsPassed.Load() >= 2 {
				uploadsRejected.Add(1)
				httpapi.WriteError(w, httpapi.Errorf(503, "unavailable", "upload gate closed"))
				return
			}
			uploadsPassed.Add(1)
		}
		c1.ServeHTTP(w, r)
	})}
	go srv1.Serve(lis)

	post := func(path, body string) (*http.Response, error) {
		return http.Post(url+path, "application/json", strings.NewReader(body))
	}

	// The straggler: takes one job, renews forever, never uploads.
	var straggler LeaseResponse
	resp, err := post(PathLease, `{"worker":"straggler"}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&straggler); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(straggler.Jobs) != 1 {
		t.Fatalf("straggler leased %d jobs, want 1", len(straggler.Jobs))
	}
	stopStraggler := make(chan struct{})
	var stragglerLost atomic.Bool
	go func() {
		hb := fmt.Sprintf(`{"worker":"straggler","lease_id":"%s"}`, straggler.LeaseID)
		for {
			select {
			case <-stopStraggler:
				return
			case <-time.After(200 * time.Millisecond):
			}
			resp, err := post(PathHeartbeat, hb)
			if err != nil {
				continue // coordinator down; keep beating
			}
			gone := resp.StatusCode == http.StatusGone
			resp.Body.Close()
			if gone {
				stragglerLost.Store(true)
				return
			}
		}
	}()
	defer close(stopStraggler)

	// The killed worker: takes one job and goes silent (kill -9
	// stand-in); its lease must expire and the job be re-executed.
	resp, err = post(PathLease, `{"worker":"doomed"}`)
	if err != nil {
		t.Fatal(err)
	}
	var doomed LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&doomed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doomed.Jobs) != 1 {
		t.Fatalf("doomed worker leased %d jobs, want 1", len(doomed.Jobs))
	}

	// Pre-seed one strike on the poison job from a distinct worker so
	// the quarantine verdict resolves via the distinct-workers rule
	// rather than the single-worker escape hatch: lease ranges until the
	// poison job surfaces, deliver its failure as "manual", and hand
	// every other range straight back with an empty upload.
	mw := manualWorker(t, url, http.DefaultClient, "manual")
	mw.opt.Faults = poisonPlan
	var held []LeaseResponse
	var poisonLease *LeaseResponse
	for poisonLease == nil {
		var lr LeaseResponse
		if err := mw.post(context.Background(), PathLease, siteLease, fmt.Sprint(len(held)), func(int) any {
			return LeaseRequest{Worker: "manual"}
		}, &lr); err != nil {
			t.Fatal(err)
		}
		if len(lr.Jobs) != 1 {
			t.Fatalf("manual lease got %d jobs, want 1 (%+v)", len(lr.Jobs), lr)
		}
		if lr.Jobs[0].Key == poisonKey {
			lrCopy := lr
			poisonLease = &lrCopy
		} else {
			held = append(held, lr)
		}
	}
	failRec, _, err := mw.runJob(context.Background(), poisonLease.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !failRec.Failed {
		t.Fatal("poison plan did not fail the poison job")
	}
	for i, lr := range append(held, *poisonLease) {
		var recs []UploadRecord
		if lr.LeaseID == poisonLease.LeaseID {
			recs = []UploadRecord{failRec}
		}
		lr := lr
		var upResp UploadResponse
		if err := mw.post(context.Background(), PathUpload, siteUpload, fmt.Sprint(i), func(attempt int) any {
			return UploadRequest{Worker: "manual", LeaseID: lr.LeaseID, Attempt: attempt, Results: recs}
		}, &upResp); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the gate and release the survivors, sharing the poison plan.
	gateArmed.Store(true)
	var wg sync.WaitGroup
	workerStats := make([]*WorkerStats, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats, err := RunWorker(context.Background(), WorkerConfig{
				Coordinator: url, ID: fmt.Sprintf("w%d", i),
				RPCRetries: 2, RPCBackoff: 5 * time.Millisecond,
				ReconnectTimeout: 60 * time.Second,
				Faults:           poisonPlan,
			})
			workerStats[i] = stats
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}

	// Kill the coordinator once the sweep is demonstrably mid-flight:
	// some results merged, and at least one worker has exhausted an
	// upload's retry budget (i.e. spilled and entered the reconnect
	// loop).
	deadline := time.Now().Add(30 * time.Second)
	for (uploadsPassed.Load() < 2 || uploadsRejected.Load() < 3) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if uploadsPassed.Load() < 2 || uploadsRejected.Load() < 3 {
		t.Fatalf("sweep never reached the kill point: passed=%d rejected=%d",
			uploadsPassed.Load(), uploadsRejected.Load())
	}
	srv1.Close()
	st1.Close()
	j1.Close()

	// Simulate the mid-frame crash: garbage on both journal tails. The
	// reopen must truncate it away.
	for _, d := range []string{dir, JournalDir(dir)} {
		f, err := os.OpenFile(lastSegment(t, d), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("\x01torn-frame-garbage")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	time.Sleep(300 * time.Millisecond) // let the workers find the coordinator dead

	// Generation 2: same store, same journal, same address.
	c2, st2, j2 := newCoord()
	defer st2.Close()
	defer j2.Close()
	if st2.Stats().DiscardedBytes == 0 || j2.Stats().DiscardedBytes == 0 {
		t.Fatalf("torn tails not repaired: store %d, journal %d discarded bytes",
			st2.Stats().DiscardedBytes, j2.Stats().DiscardedBytes)
	}
	var lis2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: c2}
	go srv2.Serve(lis2)
	defer srv2.Close()

	select {
	case <-c2.Done():
	case <-time.After(90 * time.Second):
		t.Fatalf("sweep never completed after restart: %+v (straggler lost: %v)",
			c2.Status(), stragglerLost.Load())
	}
	wg.Wait()

	// Supervision outcomes.
	st := c2.Status()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if stragglerLost.Load() {
		t.Fatal("straggler lease was lost — speculation was never exercised")
	}
	qrecs := c2.tracker.quarantineRecords()
	for _, q := range qrecs {
		if q.Key != poisonKey || q.Strikes < 2 || len(q.Workers) < 2 {
			t.Fatalf("quarantine record: %+v (poison %s)", q, poisonKey)
		}
	}
	if _, ok := st2.Get(poisonKey); ok {
		t.Fatal("poison job reached the store before the zombie delivery")
	}

	// Metrics on the restarted coordinator.
	metricsResp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	if v := metricValue(t, metrics, "dist_coord_restarts_total"); v != 1 {
		t.Fatalf("dist_coord_restarts_total = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "dist_jobs_quarantined"); v != 1 {
		t.Fatalf("dist_jobs_quarantined = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "dist_jobs_speculated_total"); v < 1 {
		t.Fatalf("dist_jobs_speculated_total = %v, want >= 1", v)
	}
	if v := metricValue(t, metrics, "dist_worker_reconnects_total"); v < 1 {
		t.Fatalf("dist_worker_reconnects_total = %v, want >= 1", v)
	}
	var reconnects, spilled, redelivered int
	for _, s := range workerStats {
		if s != nil {
			reconnects += s.Reconnects
			spilled += s.Spilled
			redelivered += s.Redelivered
		}
	}
	if reconnects < 1 || spilled < 1 || redelivered < 1 {
		t.Fatalf("worker resilience unused: reconnects=%d spilled=%d redelivered=%d",
			reconnects, spilled, redelivered)
	}

	// A zombie without the poison plan computes the quarantined job
	// cleanly and uploads it late: the merge accepts it (the data is
	// real), the verdict stands, and the store is now byte-identical to
	// the clean run.
	tsZ := httptest.NewServer(c2)
	defer tsZ.Close()
	zw := manualWorker(t, tsZ.URL, tsZ.Client(), "zombie")
	var poisonSpec *JobSpec
	for i, jb := range jobs {
		if keys[i] == poisonKey {
			poisonSpec = &JobSpec{Index: jb.Index, Benchmark: jb.Benchmark, Scenario: jb.Scenario.String(),
				Mode: jb.Mode.String(), Seed: jb.Seed, Key: poisonKey}
		}
	}
	rec, _, err := zw.runJob(context.Background(), *poisonSpec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed {
		t.Fatalf("zombie (no fault plan) failed the poison job: %s", rec.Result)
	}
	var upResp UploadResponse
	if err := zw.post(context.Background(), PathUpload, siteUpload, "lease-zombie", func(attempt int) any {
		return UploadRequest{Worker: "zombie", LeaseID: "lease-zombie", Attempt: attempt, Results: []UploadRecord{rec}}
	}, &upResp); err != nil {
		t.Fatal(err)
	}
	if upResp.Merged != 1 {
		t.Fatalf("zombie delivery: %+v, want 1 merged", upResp)
	}
	if st := c2.Status(); st.Quarantined != 1 {
		t.Fatalf("late delivery overturned the quarantine: %+v", st)
	}

	// Equivalence: modulo elapsed_ms, the survivor of all this chaos is
	// the clean single-process sweep.
	got, err := c2.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if got.Failed != 0 {
		t.Fatalf("chaos run recorded %d terminal failures: %+v", got.Failed, got.Failures)
	}
	if !reflect.DeepEqual(normalizeResults(got.Results), normalizeResults(clean.Results)) {
		t.Fatalf("chaos results diverged from single-process run:\n%+v\nvs\n%+v",
			got.Results, clean.Results)
	}
}
