// Package dist shards one sweep across processes: a coordinator owns
// the job ledger and the durable result store, and stateless workers
// lease bounded job ranges over HTTP, compute them with the
// internal/sweep engine, and upload results for an idempotent merge.
//
// The fault model is crash-stop plus lossy RPC. Leases carry a TTL
// renewed by heartbeat; a worker that dies (or whose heartbeats are
// dropped) simply stops renewing, and its jobs return to pending for
// reassignment after the TTL lapses. Execution is therefore
// at-least-once — two workers can legitimately compute the same job —
// but storage is exactly-once: every upload merges through
// store.Merge, which skips keys already journaled, and jobs are pure
// functions of their content identity (sweep.Job.StoreKey), so
// duplicate executions produce byte-identical results and the first
// delivery wins without a conflict. The merged journal of a faulted,
// multi-worker run is byte-identical (modulo timing fields) to an
// uninterrupted single-process sweep over the same store.
//
// Crash-stop covers the coordinator too: its scheduling decisions —
// lease grants/renewals/releases, failure strikes, quarantine verdicts
// — are journaled best-effort into a second store (journal.go), so a
// restarted coordinator rebuilds its tracker instead of re-leasing
// ranges live workers still hold. Workers ride out the outage: they
// spill completed-but-unuploaded results, probe until the coordinator
// returns (WorkerConfig.ReconnectTimeout bounds the continuous
// downtime), revalidate the sweep's config hash, and redeliver. Two
// supervision policies run on the lease ledger: jobs whose leases fail
// repeatedly across distinct workers are quarantined out of the sweep
// (CoordinatorConfig.QuarantineAfter), and leases that keep renewing
// far past the p95 completion time have their jobs speculatively
// re-granted (CoordinatorConfig.SpeculateFactor) — the merge's
// first-write-wins makes the duplicate harmless.
//
// Fault sites (internal/faults) cover both halves of the protocol:
// workers inject at dist/lease, dist/heartbeat, dist/upload and
// dist/reconnect (lost RPCs, dropped renewals, failed deliveries,
// stretched outages), and the coordinator injects at dist/merge
// (rejected or torn uploads whose accepted prefix must still dedup on
// retry) and dist/coord-journal (failed or torn decision-journal
// appends, which may cost restart fidelity but never results).
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/httpapi"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/store"
	"repro/internal/sweep"
)

// CoordinatorConfig configures a sweep coordinator.
type CoordinatorConfig struct {
	// Sweep defines the work. Benchmarks/scenarios/modes/seeds are
	// normalized to explicit lists; stream/callback/store wiring inside
	// is ignored — the coordinator owns durability.
	Sweep sweep.Options
	// Store is the coordinator's result journal; results already present
	// count as done before any lease is granted, so a restarted
	// coordinator resumes instead of resweeping. Required.
	Store *store.Store
	// Journal is the durable coordinator-state journal (see journal.go;
	// OpenJournal opens the conventional location beside Store). When
	// set, lease grants/renewals/releases, strike counts and quarantine
	// verdicts are journaled as they happen, and NewCoordinator rebuilds
	// the tracker from whatever the journal holds: done jobs stay done,
	// unexpired leases are honored for the same worker, quarantines
	// persist. Nil disables durability of scheduler state (results are
	// always durable through Store).
	Journal *store.Store
	// LeaseTTL bounds how long a silent worker holds jobs
	// (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// ChunkSize is the number of jobs per lease (default
	// DefaultChunkSize).
	ChunkSize int
	// QuarantineAfter is the poison-job strike threshold (see
	// trackerPolicy.quarantineAfter). 0 means DefaultQuarantineAfter;
	// negative disables quarantine, restoring the pre-supervision
	// behavior where a delivered terminal failure completes the job.
	QuarantineAfter int
	// SpeculateFactor is the straggler re-execution multiple over the
	// p95 completed-lease duration (see trackerPolicy.speculateFactor).
	// 0 means DefaultSpeculateFactor; negative disables speculation.
	SpeculateFactor float64
	// Faults optionally injects at the dist/merge site, keyed by lease
	// ID and the upload's attempt number.
	Faults *faults.Plan

	// now is the test clock (nil: time.Now).
	now func() time.Time
}

// Coordinator is the http.Handler side of a distributed sweep.
type Coordinator struct {
	cfg     CoordinatorConfig
	opt     sweep.Options // normalized
	wire    []byte        // marshaled SweepConfig, served verbatim
	hash    string        // SHA-256 of wire, pinning the journal to this sweep
	tracker *tracker
	store   *store.Store
	journal *store.Store // nil: scheduler state is memory-only
	mux     *http.ServeMux

	resumed  int // jobs already journaled at startup
	restarts int // coordinators that attached to this journal before us

	reconnects   atomic.Uint64 // workers that survived an outage and reattached
	journalDrops atomic.Uint64 // state records lost to persistent journal write failures
}

// NewCoordinator validates the sweep, enumerates its jobs, marks those
// already present in the store as done, and returns a ready handler.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("dist: coordinator requires a store")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}

	opt := cfg.Sweep
	// Normalize to explicit lists so the wire config, the job
	// enumeration, and every worker agree on the same cross product.
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = mcnc.Names()
	}
	for _, b := range opt.Benchmarks {
		if _, ok := mcnc.EmbeddedSource(b); ok {
			continue
		}
		if _, ok := mcnc.Find(b); !ok {
			return nil, fmt.Errorf("dist: unknown benchmark %q", b)
		}
	}
	// Same defaults sweep.Jobs applies, made explicit so the wire
	// config, the job enumeration, and every worker agree.
	if len(opt.Scenarios) == 0 {
		opt.Scenarios = []expt.Scenario{expt.ScenarioA, expt.ScenarioB}
	}
	if len(opt.Modes) == 0 {
		opt.Modes = []reorder.Mode{reorder.Full}
	}
	if len(opt.Seeds) == 0 {
		opt.Seeds = []int64{opt.Expt.Seed}
	}
	wire, err := json.Marshal(ConfigFromOptions(opt))
	if err != nil {
		return nil, fmt.Errorf("dist: marshaling config: %w", err)
	}

	jobs := sweep.Jobs(opt)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.StoreKey(opt)
	}

	c := &Coordinator{
		cfg:     cfg,
		opt:     opt,
		wire:    wire,
		hash:    configHash(wire),
		tracker: newTracker(jobs, keys, cfg.LeaseTTL, cfg.ChunkSize, cfg.now),
		store:   cfg.Store,
		journal: cfg.Journal,
		mux:     http.NewServeMux(),
	}
	switch {
	case cfg.QuarantineAfter > 0:
		c.tracker.policy.quarantineAfter = cfg.QuarantineAfter
	case cfg.QuarantineAfter == 0:
		c.tracker.policy.quarantineAfter = DefaultQuarantineAfter
	}
	switch {
	case cfg.SpeculateFactor > 0:
		c.tracker.policy.speculateFactor = cfg.SpeculateFactor
	case cfg.SpeculateFactor == 0:
		c.tracker.policy.speculateFactor = DefaultSpeculateFactor
	}
	c.tracker.policy.speculateMinLeases = DefaultSpeculateMinLeases

	// Resume: a key already journaled is a finished job — a restarted
	// coordinator (or one pointed at a prior single-process sweep's
	// journal) only distributes the remainder.
	for i, k := range keys {
		if c.store.Has(k) {
			if c.tracker.markDone(i, nil) {
				c.resumed++
			}
		}
	}
	// Rebuild scheduler state from the coordinator journal, then attach
	// the live journal hook (replay must never re-journal itself).
	if c.journal != nil {
		if err := c.rebuildFromJournal(); err != nil {
			return nil, err
		}
		c.tracker.journal = c.journalPut
	}

	c.mux.HandleFunc(PathConfig, c.handleConfig)
	c.mux.HandleFunc(PathLease, c.handleLease)
	c.mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	c.mux.HandleFunc(PathUpload, c.handleUpload)
	c.mux.HandleFunc(PathStatus, c.handleStatus)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/metrics", c.handleMetrics)
	return c, nil
}

// rebuildFromJournal replays the coordinator state journal into the
// tracker: validates the sweep identity, restores strikes and
// quarantines, honors unexpired leases for their original workers, and
// counts this attachment as a restart if the journal was already
// written. Replay order is meta → strikes → quarantines → leases so a
// lease never claims a job the journal already quarantined.
func (c *Coordinator) rebuildFromJournal() error {
	type leaseEntry struct {
		id  string
		rec LeaseRecord
	}
	var (
		meta        *JournalMeta
		strikes     = map[int]StrikeRecord{}
		quarantines = map[int]QuarantineRecord{}
		leases      []leaseEntry
	)
	for _, key := range c.journal.Keys() {
		raw, ok := c.journal.Get(key)
		if !ok {
			continue
		}
		ent, err := DecodeJournalRecord(key, raw)
		if err != nil {
			return fmt.Errorf("dist: corrupt coordinator journal: %w", err)
		}
		switch ent.Type {
		case "meta":
			meta = ent.Meta
		case "strike":
			if idx, ok := c.tracker.byKey[ent.Key]; ok {
				strikes[idx] = *ent.Strike
			}
		case "quarantine":
			if idx, ok := c.tracker.byKey[ent.Key]; ok {
				quarantines[idx] = *ent.Quarantine
			}
		case "lease":
			leases = append(leases, leaseEntry{id: ent.Key, rec: *ent.Lease})
		}
	}
	if meta != nil && meta.ConfigHash != c.hash {
		return fmt.Errorf("dist: coordinator journal %s belongs to a different sweep (config hash %.12s, ours %.12s); point -store at the matching journal or remove it",
			c.journal.Dir(), meta.ConfigHash, c.hash)
	}
	if meta != nil {
		c.restarts = meta.Restarts + 1
	}
	c.journalPut(journalKeyMeta, JournalMeta{ConfigHash: c.hash, Restarts: c.restarts})

	t := c.tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	for idx, rec := range strikes {
		t.restoreStrike(idx, rec)
	}
	for idx, rec := range quarantines {
		t.restoreQuarantine(idx, rec)
	}
	now := c.cfg.now()
	for _, le := range leases {
		t.bumpLeaseSeqLocked(le.id) // even dead IDs are never reissued
		if le.rec.Released || !time.UnixMilli(le.rec.ExpiryMs).After(now) {
			continue // cleanly retired or lazily expired; jobs stay pending
		}
		t.restoreLease(le.id, le.rec)
	}
	return nil
}

// journalPut appends one state record, retrying transient write faults
// (including injected dist/coord-journal tears, which the store repairs
// in place exactly as a reopen after a crash would). Persistent failure
// drops the record and degrades durability, never availability: the
// result store alone keeps the sweep correct.
func (c *Coordinator) journalPut(key string, v any) {
	if c.journal == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		c.journalDrops.Add(1)
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		err = c.journal.Put(key, raw)
		if err == nil {
			return
		}
		if !faults.Retryable(err) {
			break
		}
	}
	c.journalDrops.Add(1)
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Done is closed when every job is finished (delivered or resumed).
func (c *Coordinator) Done() <-chan struct{} { return c.tracker.doneCh }

// Status snapshots sweep progress.
func (c *Coordinator) Status() StatusResponse { return c.tracker.status() }

// Restarts reports how many coordinator generations preceded this one
// over the same journal (0 for a fresh sweep, or when no journal is
// configured).
func (c *Coordinator) Restarts() int { return c.restarts }

// Summary assembles the finished sweep in deterministic job order from
// the journal plus the in-memory failure records. It errors if the
// sweep is incomplete or a journaled result fails to decode. A
// quarantined job reports as a failure unless its result reached the
// store anyway (a zombie worker's late delivery still merges) — the
// data is real even when the scheduler gave up on the job.
func (c *Coordinator) Summary() (*sweep.Summary, error) {
	st := c.tracker.status()
	if !st.Complete {
		return nil, fmt.Errorf("dist: sweep incomplete: %d/%d jobs done", st.Done+st.Quarantined, st.Total)
	}
	c.tracker.mu.Lock()
	failed := make(map[int]sweep.Result, len(c.tracker.failed))
	for i, r := range c.tracker.failed {
		failed[i] = r
	}
	keys := c.tracker.keys
	jobs := c.tracker.jobs
	c.tracker.mu.Unlock()
	quarantined := c.tracker.quarantineRecords()

	results := make([]sweep.Result, 0, len(jobs))
	for i, j := range jobs {
		if r, ok := failed[i]; ok {
			r.Index = j.Index
			results = append(results, r)
			continue
		}
		raw, ok := c.store.Get(keys[i])
		if !ok {
			if q, isQ := quarantined[i]; isQ {
				results = append(results, sweep.Result{
					Index: j.Index, Benchmark: j.Benchmark, Scenario: j.Scenario.String(),
					Mode: j.Mode.String(), Seed: j.Seed,
					Err:      fmt.Sprintf("quarantined after %d lease failures across %d workers", q.Strikes, len(q.Workers)),
					FailKind: "quarantine",
				})
				continue
			}
			return nil, fmt.Errorf("dist: job %d (%s) done but absent from store", i, j.Benchmark)
		}
		var r sweep.Result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("dist: decoding stored result for job %d: %w", i, err)
		}
		r.Index = j.Index // duplicate-shaped sweeps share a key; reindex
		results = append(results, r)
	}
	return sweep.Summarize(results), nil
}

// ---------------------------------------------------------------------
// Handlers, on the plumbing shared with servd (internal/httpapi): strict
// JSON decode, structured error envelopes, Prometheus text /metrics.

func (c *Coordinator) handleConfig(w http.ResponseWriter, r *http.Request) {
	if err := httpapi.RequireGET(r); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(c.wire)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := httpapi.DecodeJSON(w, r, 1<<20, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	if req.Worker == "" {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, "invalid_request", "\"worker\" is required"))
		return
	}
	if req.Reconnected {
		c.reconnects.Add(1)
	}
	l, done := c.tracker.grant(req.Worker)
	resp := LeaseResponse{Done: done}
	if l != nil {
		resp.LeaseID = l.id
		resp.TTLMs = c.cfg.LeaseTTL.Milliseconds()
		c.tracker.mu.Lock()
		for _, idx := range l.jobs {
			j := c.tracker.jobs[idx]
			resp.Jobs = append(resp.Jobs, JobSpec{
				Index:     j.Index,
				Benchmark: j.Benchmark,
				Scenario:  j.Scenario.String(),
				Mode:      j.Mode.String(),
				Seed:      j.Seed,
				Key:       c.tracker.keys[idx],
			})
		}
		c.tracker.mu.Unlock()
	} else if !done {
		resp.RetryMs = DefaultRetryMs
	}
	httpapi.WriteJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := httpapi.DecodeJSON(w, r, 1<<20, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	if !c.tracker.renew(req.LeaseID) {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusGone, codeLeaseGone,
			"lease %s expired or was never granted", req.LeaseID))
		return
	}
	httpapi.WriteJSON(w, HeartbeatResponse{TTLMs: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if err := httpapi.DecodeJSON(w, r, 64<<20, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	if req.Attempt < 1 {
		req.Attempt = 1
	}

	// Coordinator-side fault site. Error rejects the whole upload;
	// TornWrite accepts a seeded prefix and then "crashes" — the
	// worker's retry re-delivers everything and the accepted prefix
	// dedups, which is exactly the idempotence this protocol exists to
	// provide. Panic is contained to a rejection (the coordinator must
	// not die), Delay just stalls.
	n := len(req.Results)
	switch c.cfg.Faults.Decide(siteMerge, req.LeaseID, req.Attempt) {
	case faults.Error, faults.Panic:
		httpapi.WriteError(w, httpapi.Errorf(http.StatusServiceUnavailable, "injected_fault",
			"injected merge failure for lease %s attempt %d", req.LeaseID, req.Attempt))
		return
	case faults.TornWrite:
		keep := c.cfg.Faults.TearAt(siteMerge, req.LeaseID, req.Attempt, n)
		c.mergeRecords(req.Worker, req.Results[:keep])
		httpapi.WriteError(w, httpapi.Errorf(http.StatusServiceUnavailable, "injected_fault",
			"injected torn merge for lease %s attempt %d: accepted %d/%d", req.LeaseID, req.Attempt, keep, n))
		return
	case faults.Delay:
		time.Sleep(c.cfg.Faults.DelayFor(siteMerge, req.LeaseID, req.Attempt))
	}

	resp := c.mergeRecords(req.Worker, req.Results)
	// A successful upload retires the lease; any jobs the worker chose
	// not to deliver go straight back to pending.
	c.tracker.release(req.LeaseID)
	httpapi.WriteJSON(w, resp)
}

// mergeRecords applies uploaded records to the ledger and the journal.
// Failures are accounted but never journaled in the result store
// (matching the single-process sweep, which only journals successes);
// with quarantine enabled a failure charges a strike and the job is
// retried on another worker instead of completing immediately.
// Successes merge idempotently through store.Merge.
func (c *Coordinator) mergeRecords(worker string, recs []UploadRecord) UploadResponse {
	var resp UploadResponse
	for _, rec := range recs {
		idx, ok := c.tracker.jobIndex(rec.Key)
		if !ok {
			resp.Unknown++
			continue
		}
		if rec.Failed {
			var r sweep.Result
			if err := json.Unmarshal(rec.Result, &r); err == nil {
				c.tracker.markFailed(idx, worker, &r)
			}
			resp.Failed++
			continue
		}
		added, _, err := c.store.Merge([]store.Record{{Key: rec.Key, Value: rec.Result}})
		if err != nil {
			// A failed append leaves the job un-done; the lease will
			// expire and the job will be recomputed and re-delivered.
			continue
		}
		if added == 1 {
			resp.Merged++
		} else {
			resp.Deduped++
		}
		c.tracker.markDone(idx, nil)
	}
	return resp
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if err := httpapi.RequireGET(r); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	httpapi.WriteJSON(w, c.tracker.status())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := httpapi.RequireGET(r); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	httpapi.WriteJSON(w, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if err := httpapi.RequireGET(r); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.writeMetrics(w)
}

func (c *Coordinator) writeMetrics(w io.Writer) {
	st := c.tracker.status()
	granted, renewed, expired, speculated := c.tracker.counters()
	httpapi.Gauge(w, "dist_jobs_total", "Jobs in this sweep.", st.Total)
	httpapi.Gauge(w, "dist_jobs_done", "Jobs finished (delivered or resumed).", st.Done)
	httpapi.Gauge(w, "dist_jobs_pending", "Jobs waiting for a lease.", st.Pending)
	httpapi.Gauge(w, "dist_jobs_leased", "Jobs currently leased out.", st.Leased)
	httpapi.Gauge(w, "dist_jobs_failed", "Jobs that ended in a terminal failure.", st.Failed)
	httpapi.Gauge(w, "dist_jobs_resumed", "Jobs satisfied from the journal at startup.", c.resumed)
	httpapi.Gauge(w, "dist_jobs_quarantined", "Poison jobs excluded after repeated lease failures across workers.", st.Quarantined)
	httpapi.Counter(w, "dist_jobs_speculated_total", "Jobs re-granted past a straggling (still-renewing) lease.", speculated)
	httpapi.Counter(w, "dist_leases_granted_total", "Leases handed out.", granted)
	httpapi.Counter(w, "dist_leases_renewed_total", "Heartbeat renewals honored.", renewed)
	httpapi.Counter(w, "dist_leases_expired_total", "Leases reclaimed after TTL lapse (worker death or lost heartbeats).", expired)
	httpapi.Counter(w, "dist_coord_restarts_total", "Coordinators that attached to an already-written state journal (crash/shutdown recoveries).", c.restarts)
	httpapi.Counter(w, "dist_worker_reconnects_total", "Workers that survived a coordinator outage and reattached after config revalidation.", c.reconnects.Load())
	httpapi.Counter(w, "dist_coord_journal_drops_total", "Coordinator state records lost to persistent journal write failures.", c.journalDrops.Load())

	stats := c.store.Stats()
	httpapi.Counter(w, "dist_results_merged_total", "Uploaded results appended to the journal.", stats.MergeAdded)
	httpapi.Counter(w, "dist_results_deduped_total", "Uploaded results already journaled (duplicate executions absorbed).", stats.MergeSkipped)
	httpapi.Gauge(w, "dist_store_records", "Distinct results in the journal.", stats.Records)
	httpapi.Gauge(w, "dist_store_segments", "Journal segments on disk.", stats.Segments)
	httpapi.Gauge(w, "dist_store_discarded_bytes", "Torn-tail bytes discarded when the journal was opened.", stats.DiscardedBytes)
}

const codeLeaseGone = "lease_gone"

// Fault sites.
const (
	siteLease     = "dist/lease"
	siteHeartbeat = "dist/heartbeat"
	siteUpload    = "dist/upload"
	siteMerge     = "dist/merge"
	siteReconnect = "dist/reconnect"
)
