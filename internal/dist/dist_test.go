package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/httpapi"
	"repro/internal/reorder"
	"repro/internal/store"
	"repro/internal/sweep"
)

// fakeClock drives the tracker's lazy expiry without real sleeps.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testJobs(n int) ([]sweep.Job, []string) {
	jobs := make([]sweep.Job, n)
	keys := make([]string, n)
	for i := range jobs {
		jobs[i] = sweep.Job{Index: i, Benchmark: "c17", Scenario: expt.ScenarioA, Mode: reorder.Full, Seed: int64(i)}
		keys[i] = string(rune('a' + i))
	}
	return jobs, keys
}

// TestTrackerLeaseLifecycle walks grant → renew → expire → reassign →
// deliver on a fake clock.
func TestTrackerLeaseLifecycle(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	jobs, keys := testJobs(5)
	tr := newTracker(jobs, keys, 10*time.Second, 2, clock.now)

	l1, done := tr.grant("w1")
	if done || l1 == nil || len(l1.jobs) != 2 {
		t.Fatalf("first grant = %+v done=%v, want 2 jobs", l1, done)
	}
	l2, _ := tr.grant("w2")
	l3, _ := tr.grant("w3")
	if len(l2.jobs) != 2 || len(l3.jobs) != 1 {
		t.Fatalf("grants carved %d+%d jobs, want 2+1", len(l2.jobs), len(l3.jobs))
	}
	if l4, done := tr.grant("w4"); l4 != nil || done {
		t.Fatalf("grant with nothing pending = (%v, %v), want (nil, false)", l4, done)
	}

	// Renewal holds a lease across its original deadline.
	clock.advance(8 * time.Second)
	if !tr.renew(l1.id) {
		t.Fatal("renew of live lease refused")
	}
	clock.advance(4 * time.Second) // l2, l3 now past deadline; l1 renewed
	st := tr.status()
	if st.Pending != 3 || st.Leased != 2 || st.Workers != 1 {
		t.Fatalf("after expiry: %+v, want pending 3 leased 2 workers 1", st)
	}
	if tr.renew(l2.id) {
		t.Fatal("renew of expired lease succeeded")
	}
	g, r, e, _ := tr.counters()
	if g != 3 || r != 1 || e != 2 {
		t.Fatalf("counters granted=%d renewed=%d expired=%d, want 3/1/2", g, r, e)
	}

	// The expired jobs are grantable again.
	l4, _ := tr.grant("w4")
	if len(l4.jobs) != 2 {
		t.Fatalf("reassignment granted %d jobs, want 2", len(l4.jobs))
	}

	// First delivery wins; the duplicate is not a state change.
	idx := l1.jobs[0]
	if !tr.markDone(idx, nil) {
		t.Fatal("first delivery not recorded")
	}
	if tr.markDone(idx, nil) {
		t.Fatal("duplicate delivery recorded as first")
	}

	// Deliver everything; the done channel must close.
	for i := range jobs {
		tr.markDone(i, nil)
	}
	select {
	case <-tr.doneCh:
	default:
		t.Fatal("done channel open after all jobs delivered")
	}
	if st := tr.status(); !st.Complete || st.Done != 5 {
		t.Fatalf("final status %+v", st)
	}
}

// TestTrackerReleaseReturnsUndelivered: a successful upload retires the
// lease, and jobs the worker skipped go straight back to pending.
func TestTrackerReleaseReturnsUndelivered(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	jobs, keys := testJobs(3)
	tr := newTracker(jobs, keys, time.Minute, 3, clock.now)
	l, _ := tr.grant("w")
	tr.markDone(l.jobs[0], nil)
	tr.release(l.id)
	st := tr.status()
	if st.Pending != 2 || st.Leased != 0 || st.Done != 1 {
		t.Fatalf("after partial release: %+v", st)
	}
}

// TestTrackerDurationWindow pins the straggler-p95 sample ring at its
// capacity boundary: the history must stop growing at durationWindow
// entries, eviction must drop the oldest sample first, and the p95 must
// be computed over exactly the surviving window — a fleet that slowed
// down mid-sweep shows up in the p95 instead of being averaged away by
// unbounded early history.
func TestTrackerDurationWindow(t *testing.T) {
	tr := newTracker(nil, nil, time.Minute, 1, time.Now)

	// Below capacity: every sample is retained and sorted into the p95.
	for i := 1; i <= durationWindow-1; i++ {
		tr.recordDurationLocked(time.Duration(i) * time.Millisecond)
	}
	if len(tr.durations) != durationWindow-1 || tr.durTotal != durationWindow-1 {
		t.Fatalf("below cap: len=%d total=%d, want %d/%d",
			len(tr.durations), tr.durTotal, durationWindow-1, durationWindow-1)
	}

	// Exactly at capacity: samples 1..durationWindow ms, p95 index is
	// ceil(n*95/100)-1 = 243 for n=256, so the sorted value is 244ms.
	tr.recordDurationLocked(time.Duration(durationWindow) * time.Millisecond)
	if len(tr.durations) != durationWindow {
		t.Fatalf("at cap: len=%d, want %d", len(tr.durations), durationWindow)
	}
	wantIdx := (durationWindow*95+99)/100 - 1
	want := time.Duration(wantIdx+1) * time.Millisecond
	if got := tr.p95Locked(); got != want {
		t.Fatalf("p95 at cap = %v, want %v", got, want)
	}

	// One past capacity: the ring stays at durationWindow entries and the
	// oldest sample (1ms) is the one evicted.
	tr.recordDurationLocked(time.Second)
	if len(tr.durations) != durationWindow || tr.durTotal != durationWindow+1 {
		t.Fatalf("past cap: len=%d total=%d, want %d/%d",
			len(tr.durations), tr.durTotal, durationWindow, durationWindow+1)
	}
	min := tr.durations[0]
	for _, d := range tr.durations {
		if d < min {
			min = d
		}
	}
	if min != 2*time.Millisecond {
		t.Fatalf("oldest surviving sample = %v, want 2ms (1ms evicted first)", min)
	}

	// A full window of slow leases replaces the history entirely: the p95
	// reflects only the new regime. The p95 sort must also leave the ring
	// itself in insertion order, or the next eviction would overwrite an
	// arbitrary sample instead of the oldest.
	for i := 0; i < durationWindow; i++ {
		tr.recordDurationLocked(time.Second)
	}
	if got := tr.p95Locked(); got != time.Second {
		t.Fatalf("p95 after regime change = %v, want 1s", got)
	}
	if tr.durTotal != 2*durationWindow+1 {
		t.Fatalf("durTotal = %d, want %d", tr.durTotal, 2*durationWindow+1)
	}
}

// TestConfigRoundTrip: options survive the wire encoding, and leased
// job specs reconstruct the exact sweep jobs.
func TestConfigRoundTrip(t *testing.T) {
	opt := sweep.DefaultOptions()
	opt.Benchmarks = []string{"c17", "rca4"}
	opt.Seeds = []int64{3, 9}
	opt.Simulate = true
	opt.OptimizerWorkers = 2
	opt.Expt.CyclesB = 77

	raw, err := json.Marshal(ConfigFromOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	var cfg SweepConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	got, err := cfg.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Benchmarks, opt.Benchmarks) ||
		!reflect.DeepEqual(got.Scenarios, opt.Scenarios) ||
		!reflect.DeepEqual(got.Modes, opt.Modes) ||
		!reflect.DeepEqual(got.Seeds, opt.Seeds) ||
		got.Simulate != opt.Simulate ||
		got.OptimizerWorkers != opt.OptimizerWorkers ||
		got.Expt.CyclesB != 77 {
		t.Fatalf("round-trip diverged:\n%+v\nvs\n%+v", got, opt)
	}
	// The reconstruction must produce identical store keys — the whole
	// scheme depends on coordinator and worker agreeing on identity.
	for i, j := range sweep.Jobs(opt) {
		if j.StoreKey(opt) != sweep.Jobs(got)[i].StoreKey(got) {
			t.Fatalf("job %d store key diverged across the wire", i)
		}
	}

	for _, j := range sweep.Jobs(opt) {
		spec := JobSpec{Index: j.Index, Benchmark: j.Benchmark, Scenario: j.Scenario.String(),
			Mode: j.Mode.String(), Seed: j.Seed, Key: "k"}
		back, err := spec.Job()
		if err != nil {
			t.Fatal(err)
		}
		if back != j {
			t.Fatalf("JobSpec round-trip: %+v vs %+v", back, j)
		}
	}

	if _, err := (SweepConfig{Scenarios: []string{"Z"}}).Options(); err == nil {
		t.Fatal("bad scenario accepted")
	}
	if _, err := (SweepConfig{Modes: []string{"bogus"}}).Options(); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func newTestCoordinator(t *testing.T, opt sweep.Options, ttl time.Duration, chunk int) (*Coordinator, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	c, err := NewCoordinator(CoordinatorConfig{Sweep: opt, Store: st, LeaseTTL: ttl, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts, st
}

func postRaw(t *testing.T, url string, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

// TestCoordinatorEndpointContracts pins the HTTP conventions: strict
// decode, structured envelopes, method guards, lease_gone.
func TestCoordinatorEndpointContracts(t *testing.T) {
	opt := sweep.Options{Benchmarks: []string{"c17"}, Scenarios: []expt.Scenario{expt.ScenarioA}, Seeds: []int64{1}}
	_, ts, _ := newTestCoordinator(t, opt, time.Minute, 2)

	resp, body := postRaw(t, ts.URL+PathLease, `{"worker":"w","bogus":1}`)
	if resp.StatusCode != 400 || !strings.Contains(body, `"invalid_json"`) {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
	resp, body = postRaw(t, ts.URL+PathLease, `{}`)
	if resp.StatusCode != 400 || !strings.Contains(body, `"invalid_request"`) {
		t.Fatalf("missing worker: %d %s", resp.StatusCode, body)
	}
	resp, body = postRaw(t, ts.URL+PathHeartbeat, `{"worker":"w","lease_id":"lease-99"}`)
	if resp.StatusCode != 410 || !strings.Contains(body, codeLeaseGone) {
		t.Fatalf("unknown lease heartbeat: %d %s", resp.StatusCode, body)
	}
	getResp, err := http.Get(ts.URL + PathLease)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != 405 {
		t.Fatalf("GET on lease = %d, want 405", getResp.StatusCode)
	}

	cfgResp, err := http.Get(ts.URL + PathConfig)
	if err != nil {
		t.Fatal(err)
	}
	var cfg SweepConfig
	if err := json.NewDecoder(cfgResp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	cfgResp.Body.Close()
	if !reflect.DeepEqual(cfg.Benchmarks, []string{"c17"}) || len(cfg.Modes) != 1 {
		t.Fatalf("config = %+v", cfg)
	}

	// Uploading a result for an unknown key is ignored, not an error:
	// late deliveries from long-dead leases must be harmless.
	resp, body = postRaw(t, ts.URL+PathUpload,
		`{"worker":"w","lease_id":"lease-99","attempt":1,"results":[{"key":"nope","result":"e30="}]}`)
	if resp.StatusCode != 200 || !strings.Contains(body, `"unknown":1`) {
		t.Fatalf("unknown key upload: %d %s", resp.StatusCode, body)
	}
}

// TestCoordinatorRejectsUnknownBenchmark: job validation happens at
// construction, not at lease time.
func TestCoordinatorRejectsUnknownBenchmark(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = NewCoordinator(CoordinatorConfig{
		Sweep: sweep.Options{Benchmarks: []string{"no-such-bench"}},
		Store: st,
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-bench") {
		t.Fatalf("err = %v", err)
	}
}

// TestWorkerRPCRetry: transient 503s are retried through, terminal 400s
// are not.
func TestWorkerRPCRetry(t *testing.T) {
	fails := 2
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= fails {
			httpapi.WriteError(w, httpapi.Errorf(503, "unavailable", "try again"))
			return
		}
		httpapi.WriteJSON(w, map[string]int{"ok": 1})
	}))
	defer ts.Close()

	w := &worker{cfg: WorkerConfig{RPCRetries: 4, RPCBackoff: time.Millisecond, Logf: func(string, ...any) {}},
		client: ts.Client(), base: ts.URL}
	var out map[string]int
	err := w.post(t.Context(), "/x", siteLease, "k", func(int) any { return map[string]int{} }, &out)
	if err != nil || out["ok"] != 1 || calls != 3 {
		t.Fatalf("retry: err=%v calls=%d out=%v", err, calls, out)
	}

	calls, fails = 0, 0
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		httpapi.WriteError(w, httpapi.Errorf(400, "invalid_request", "no"))
	}))
	defer ts2.Close()
	w2 := &worker{cfg: WorkerConfig{RPCRetries: 4, RPCBackoff: time.Millisecond, Logf: func(string, ...any) {}},
		client: ts2.Client(), base: ts2.URL}
	err = w2.post(t.Context(), "/x", siteLease, "k", func(int) any { return map[string]int{} }, &out)
	var re *remoteError
	if err == nil || !errors.As(err, &re) || re.Status != 400 || calls != 1 {
		t.Fatalf("terminal 400: err=%v calls=%d", err, calls)
	}
}
