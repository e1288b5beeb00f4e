package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/httpapi"
	"repro/internal/store"
	"repro/internal/sweep"
)

// WorkerConfig configures one worker process (or goroutine).
type WorkerConfig struct {
	// Coordinator is the base URL, e.g. "http://host:7070". Required.
	Coordinator string
	// ID names this worker in leases and logs (default "host-pid").
	ID string
	// LocalStore optionally journals this worker's results locally
	// (keyed by the coordinator-shipped content key), so a restarted
	// worker re-delivers instead of recomputing.
	LocalStore *store.Store
	// JobRetries / JobRetryBackoff configure the sweep engine's per-job
	// retry budget (sweep.Options.Retries semantics).
	JobRetries      int
	JobRetryBackoff time.Duration
	// RPCRetries bounds re-sends of each coordinator RPC after a
	// transient failure (default 5); RPCBackoff is the base of the
	// exponential backoff between them (default 100ms).
	RPCRetries int
	RPCBackoff time.Duration
	// ReconnectTimeout bounds how long the worker keeps probing an
	// unreachable coordinator before concluding it is gone for good and
	// exiting cleanly (default DefaultReconnectTimeout; negative
	// disables reconnection entirely — the first exhausted retry budget
	// is a clean exit, the pre-reconnect behavior). The budget covers
	// *continuous* downtime: any successful probe resets it.
	ReconnectTimeout time.Duration
	// Faults injects at the worker-side sites: dist/lease (lost lease
	// RPCs), dist/heartbeat (dropped renewals — the lease expires and
	// the range is reassigned), dist/upload (failed deliveries,
	// retried with a fresh attempt number), dist/reconnect (failed
	// reconnect probes, stretching a simulated coordinator outage).
	Faults *faults.Plan
	// Client overrides the HTTP client (default: http.DefaultClient
	// semantics with a 30s timeout).
	Client *http.Client
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

// WorkerStats summarizes one RunWorker call.
type WorkerStats struct {
	Leases      int // leases processed to completion
	LeasesLost  int // leases abandoned after the coordinator reclaimed them
	Computed    int // jobs computed locally
	LocalHits   int // jobs served from the local journal
	Failed      int // jobs that ended in a terminal failure record
	Uploaded    int // result records delivered
	Retried     int // extra sweep-engine attempts spent on transient job failures
	Reconnects  int // coordinator outages survived (config revalidated on reattach)
	Spilled     int // records held locally when the coordinator went away mid-upload
	Redelivered int // spilled records delivered after a reconnect
}

// spilledUpload is a lease's worth of results that was computed but
// never acknowledged before the coordinator became unreachable. It is
// re-delivered verbatim after a reconnect; the coordinator's merge
// dedups anything a replacement worker got there first.
type spilledUpload struct {
	leaseID string
	records []UploadRecord
}

// worker is the runtime state behind RunWorker.
type worker struct {
	cfg         WorkerConfig
	client      *http.Client
	base        string
	opt         sweep.Options
	cc          *sweep.CircuitCache
	stats       WorkerStats
	confHash    string // hash of the sweep definition this worker joined
	spill       []spilledUpload
	reconnected bool // next lease request reports a survived outage
}

// RunWorker joins the coordinator's sweep and processes leases until
// the sweep completes or ctx is canceled. A coordinator that becomes
// unreachable mid-run is not fatal: the worker spills any
// computed-but-unacknowledged results, probes the config endpoint with
// capped exponential backoff for up to ReconnectTimeout, revalidates
// that the coordinator still serves the same sweep definition, and
// resumes — re-delivering the spill first. Only a coordinator that
// stays down past the budget (it finished the sweep and exited, or is
// gone for good) is a clean exit; one that comes back serving a
// *different* sweep is a terminal error. It always returns the stats
// accumulated so far.
func RunWorker(ctx context.Context, cfg WorkerConfig) (*WorkerStats, error) {
	if cfg.Coordinator == "" {
		return &WorkerStats{}, errors.New("dist: worker requires a coordinator URL")
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.RPCRetries <= 0 {
		cfg.RPCRetries = 5
	}
	if cfg.RPCBackoff <= 0 {
		cfg.RPCBackoff = 100 * time.Millisecond
	}
	if cfg.ReconnectTimeout == 0 {
		cfg.ReconnectTimeout = DefaultReconnectTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	w := &worker{
		cfg:    cfg,
		client: client,
		base:   cfg.Coordinator,
		cc:     sweep.NewCircuitCache(0),
	}

	// The coordinator's config is the single source of truth for what a
	// job means; the worker only adds local policy (retries, faults).
	var wireCfg SweepConfig
	if err := w.get(ctx, PathConfig, &wireCfg); err != nil {
		return &w.stats, fmt.Errorf("dist: fetching config: %w", err)
	}
	opt, err := wireCfg.Options()
	if err != nil {
		return &w.stats, err
	}
	opt.Retries = cfg.JobRetries
	opt.RetryBackoff = cfg.JobRetryBackoff
	opt.Faults = cfg.Faults
	w.opt = opt
	raw, err := json.Marshal(wireCfg)
	if err != nil {
		return &w.stats, fmt.Errorf("dist: hashing config: %w", err)
	}
	w.confHash = configHash(raw)

	// survive turns an exhausted RPC retry budget into either a
	// successful reconnect (true), a give-up clean exit (false, nil), or
	// a terminal error (ctx canceled, or the coordinator came back
	// serving a different sweep).
	survive := func(cause error) (bool, error) {
		ok, err := w.reconnect(ctx, cause)
		if err != nil {
			return false, err
		}
		if !ok {
			cfg.Logf("worker %s: coordinator gone (%v); exiting with %d spilled records undelivered",
				cfg.ID, cause, spillCount(w.spill))
		}
		return ok, nil
	}

	leaseSeq := 0
	for {
		if err := ctx.Err(); err != nil {
			return &w.stats, err
		}
		// Spilled results from before an outage go out before any new
		// lease: the coordinator may be waiting on exactly those jobs.
		if err := w.redeliver(ctx); err != nil {
			var down *downError
			if !errors.As(err, &down) {
				return &w.stats, fmt.Errorf("dist: redelivering spilled results: %w", err)
			}
			if ok, rerr := survive(down); rerr != nil || !ok {
				return &w.stats, rerr
			}
			continue
		}
		leaseSeq++
		var resp LeaseResponse
		key := fmt.Sprintf("%s-%d", cfg.ID, leaseSeq)
		reconnected := w.reconnected
		err := w.post(ctx, PathLease, siteLease, key, func(int) any {
			return LeaseRequest{Worker: cfg.ID, Reconnected: reconnected}
		}, &resp)
		var down *downError
		if errors.As(err, &down) {
			if ok, rerr := survive(down); rerr != nil || !ok {
				return &w.stats, rerr
			}
			continue
		}
		if err != nil {
			return &w.stats, fmt.Errorf("dist: leasing: %w", err)
		}
		w.reconnected = false
		switch {
		case resp.Done:
			cfg.Logf("worker %s: sweep complete (%d leases, %d computed, %d uploaded)",
				cfg.ID, w.stats.Leases, w.stats.Computed, w.stats.Uploaded)
			return &w.stats, nil
		case len(resp.Jobs) == 0:
			wait := time.Duration(resp.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = DefaultRetryMs * time.Millisecond
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return &w.stats, err
			}
			continue
		}
		if err := w.processLease(ctx, resp); err != nil {
			if errors.As(err, &down) {
				if ok, rerr := survive(down); rerr != nil || !ok {
					return &w.stats, rerr
				}
				continue
			}
			return &w.stats, err
		}
	}
}

func spillCount(spill []spilledUpload) int {
	n := 0
	for _, s := range spill {
		n += len(s.records)
	}
	return n
}

// processLease computes a lease's jobs under a background heartbeat and
// uploads the results. Losing the lease mid-flight (heartbeat says
// gone) stops further compute; whatever finished is still uploaded —
// the coordinator accepts results from expired leases and dedups any
// the replacement worker delivered first.
func (w *worker) processLease(ctx context.Context, l LeaseResponse) error {
	ttl := time.Duration(l.TTLMs) * time.Millisecond
	w.cfg.Logf("worker %s: lease %s: %d jobs, ttl %s", w.cfg.ID, l.LeaseID, len(l.Jobs), ttl)

	var lost atomic.Bool
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx, l.LeaseID, ttl, &lost)
	}()

	var records []UploadRecord
	for _, spec := range l.Jobs {
		if lost.Load() || ctx.Err() != nil {
			break
		}
		rec, computed, err := w.runJob(ctx, spec)
		if err != nil {
			stopHB()
			<-hbDone
			return err
		}
		if computed {
			w.stats.Computed++
		} else {
			w.stats.LocalHits++
		}
		if rec.Failed {
			w.stats.Failed++
		}
		records = append(records, rec)
	}
	stopHB()
	<-hbDone

	if len(records) > 0 {
		var resp UploadResponse
		err := w.post(ctx, PathUpload, siteUpload, l.LeaseID, func(attempt int) any {
			return UploadRequest{Worker: w.cfg.ID, LeaseID: l.LeaseID, Attempt: attempt, Results: records}
		}, &resp)
		var down *downError
		if errors.As(err, &down) {
			// The coordinator went away with finished work in hand.
			// Spill it: the records survive in memory (and succeeded
			// results in the local journal) and are re-delivered after a
			// reconnect, where the merge dedups anything a replacement
			// worker computed in the meantime.
			w.spill = append(w.spill, spilledUpload{leaseID: l.LeaseID, records: records})
			w.stats.Spilled += len(records)
			w.cfg.Logf("worker %s: lease %s: coordinator gone mid-upload; spilled %d records",
				w.cfg.ID, l.LeaseID, len(records))
			return err
		}
		if err != nil {
			return fmt.Errorf("dist: uploading lease %s: %w", l.LeaseID, err)
		}
		w.stats.Uploaded += len(records)
		w.cfg.Logf("worker %s: lease %s uploaded: %d merged, %d deduped",
			w.cfg.ID, l.LeaseID, resp.Merged, resp.Deduped)
	}
	if lost.Load() {
		w.stats.LeasesLost++
	} else {
		w.stats.Leases++
	}
	return nil
}

// runJob produces one job's upload record, from the local journal when
// possible. Terminal failures become Failed records (the coordinator
// accounts them without journaling), mirroring the single-process
// sweep.
func (w *worker) runJob(ctx context.Context, spec JobSpec) (UploadRecord, bool, error) {
	if ls := w.cfg.LocalStore; ls != nil {
		if raw, ok := ls.Get(spec.Key); ok {
			return UploadRecord{Key: spec.Key, Result: raw}, false, nil
		}
	}
	job, err := spec.Job()
	if err != nil {
		return UploadRecord{}, false, fmt.Errorf("dist: lease carried bad job spec: %w", err)
	}
	res, attempts := sweep.ExecuteJob(ctx, job, spec.Key, w.cc, w.opt)
	if attempts > 1 {
		w.stats.Retried += attempts - 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return UploadRecord{}, false, fmt.Errorf("dist: encoding result: %w", err)
	}
	if res.Err == "" {
		if ls := w.cfg.LocalStore; ls != nil {
			ls.Put(spec.Key, raw) // best-effort; a failed local append never fails the job
		}
	}
	return UploadRecord{Key: spec.Key, Failed: res.Err != "", Result: raw}, true, nil
}

// reconnect probes the coordinator's config endpoint until it answers
// again or the worker has been continuously unreachable for
// ReconnectTimeout. Probes are single round-trips under capped
// exponential backoff (never more than maxReconnectBackoff apart); the
// dist/reconnect fault site can fail probes to stretch a simulated
// outage. On reattach the config is revalidated by hash — a
// coordinator that came back serving a different sweep definition is a
// terminal error, because mixing results across definitions would
// corrupt the store. Returns (false, nil) when the budget runs out:
// the coordinator is gone for good, which callers treat as a clean
// exit.
func (w *worker) reconnect(ctx context.Context, cause error) (bool, error) {
	if w.cfg.ReconnectTimeout < 0 {
		return false, nil
	}
	deadline := time.Now().Add(w.cfg.ReconnectTimeout)
	w.cfg.Logf("worker %s: coordinator unreachable (%v); reconnecting for up to %s",
		w.cfg.ID, cause, w.cfg.ReconnectTimeout)
	for probe := 1; ; probe++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if time.Now().After(deadline) {
			return false, nil
		}
		if err := w.cfg.Faults.Inject(siteReconnect, w.cfg.ID, probe); err != nil {
			w.cfg.Logf("worker %s: reconnect probe %d: injected %v", w.cfg.ID, probe, err)
		} else {
			var wireCfg SweepConfig
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+PathConfig, nil)
			if err != nil {
				return false, err
			}
			if err := w.roundTrip(req, &wireCfg); err == nil {
				raw, err := json.Marshal(wireCfg)
				if err != nil {
					return false, fmt.Errorf("dist: hashing config: %w", err)
				}
				if configHash(raw) != w.confHash {
					return false, fmt.Errorf("dist: coordinator at %s now serves a different sweep (config hash changed); refusing to mix results", w.base)
				}
				w.stats.Reconnects++
				w.reconnected = true
				w.cfg.Logf("worker %s: reconnected after %d probes; config revalidated", w.cfg.ID, probe)
				return true, nil
			} else if ctx.Err() != nil {
				return false, ctx.Err()
			}
		}
		d := backoff(w.cfg.RPCBackoff, siteReconnect+"|"+w.cfg.ID, probe)
		if d > maxReconnectBackoff {
			d = maxReconnectBackoff
		}
		if err := sleepCtx(ctx, d); err != nil {
			return false, err
		}
	}
}

// redeliver drains the spill, oldest lease first. Each upload uses the
// normal retry budget; an exhausted budget (coordinator down again)
// surfaces as a downError with the spill intact, so the caller can
// reconnect and try again.
func (w *worker) redeliver(ctx context.Context) error {
	for len(w.spill) > 0 {
		s := w.spill[0]
		var resp UploadResponse
		err := w.post(ctx, PathUpload, siteUpload, s.leaseID, func(attempt int) any {
			return UploadRequest{Worker: w.cfg.ID, LeaseID: s.leaseID, Attempt: attempt, Results: s.records}
		}, &resp)
		if err != nil {
			return err
		}
		w.stats.Uploaded += len(s.records)
		w.stats.Redelivered += len(s.records)
		w.spill = w.spill[1:]
		w.cfg.Logf("worker %s: redelivered %d spilled records for lease %s (%d merged, %d deduped)",
			w.cfg.ID, len(s.records), s.leaseID, resp.Merged, resp.Deduped)
	}
	return nil
}

// heartbeat renews the lease at TTL/3 until canceled, flagging lost
// when the coordinator says the lease is gone. Renewals are single
// attempts — a missed beat is recovered by the next tick well inside
// the TTL — and the dist/heartbeat fault site drops beats entirely,
// which is how the chaos tests starve a lease into reassignment.
func (w *worker) heartbeat(ctx context.Context, leaseID string, ttl time.Duration, lost *atomic.Bool) {
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for beat := 1; ; beat++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if w.cfg.Faults.Decide(siteHeartbeat, leaseID, beat) != faults.None {
			w.cfg.Logf("worker %s: lease %s: heartbeat %d dropped (injected)", w.cfg.ID, leaseID, beat)
			continue
		}
		var resp HeartbeatResponse
		err := w.doOnce(ctx, PathHeartbeat, HeartbeatRequest{Worker: w.cfg.ID, LeaseID: leaseID}, &resp)
		var he *remoteError
		if errors.As(err, &he) && he.Code == codeLeaseGone {
			w.cfg.Logf("worker %s: lease %s reclaimed by coordinator", w.cfg.ID, leaseID)
			lost.Store(true)
			return
		}
	}
}

// ---------------------------------------------------------------------
// RPC plumbing: every POST retries transient failures (transport
// errors, 5xx/429, injected faults) with exponential backoff and
// seeded jitter; 4xx is terminal.

// downError marks RPC retry-budget exhaustion on transient failures —
// the coordinator is unreachable or persistently erroring, as opposed
// to rejecting the request outright.
type downError struct {
	attempts int
	cause    error
}

func (e *downError) Error() string {
	return fmt.Sprintf("coordinator unreachable after %d attempts: %v", e.attempts, e.cause)
}
func (e *downError) Unwrap() error { return e.cause }

// remoteError is a structured error envelope from the coordinator.
type remoteError struct {
	Status  int
	Code    string
	Message string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("coordinator: %d %s: %s", e.Status, e.Code, e.Message)
}

// Retryable implements the faults.Retryable contract: server-side
// trouble is worth retrying, client mistakes are not.
func (e *remoteError) Retryable() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

func retryable(err error) bool {
	var re *remoteError
	if errors.As(err, &re) {
		return re.Retryable()
	}
	// Transport-level failures (connection refused, reset, timeout) and
	// injected faults are transient by definition.
	return true
}

// post sends build(attempt) to path, retrying transient failures. The
// fault plan is consulted per attempt at the given site, so an injected
// schedule deterministically exercises the retry path.
func (w *worker) post(ctx context.Context, path, site, key string, build func(attempt int) any, out any) error {
	var lastErr error
	for attempt := 1; attempt <= w.cfg.RPCRetries+1; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, backoff(w.cfg.RPCBackoff, site+"|"+key, attempt-1)); err != nil {
				return err
			}
		}
		if err := w.cfg.Faults.Inject(site, key, attempt); err != nil {
			lastErr = err
			continue
		}
		err := w.doOnce(ctx, path, build(attempt), out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !retryable(err) {
			return err
		}
		lastErr = err
	}
	return &downError{attempts: w.cfg.RPCRetries + 1, cause: lastErr}
}

// doOnce performs one POST round-trip.
func (w *worker) doOnce(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.roundTrip(req, out)
}

// get performs a GET with the same retry policy as post.
func (w *worker) get(ctx context.Context, path string, out any) error {
	var lastErr error
	for attempt := 1; attempt <= w.cfg.RPCRetries+1; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, backoff(w.cfg.RPCBackoff, "get|"+path, attempt-1)); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
		if err != nil {
			return err
		}
		err = w.roundTrip(req, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !retryable(err) {
			return err
		}
		lastErr = err
	}
	return &downError{attempts: w.cfg.RPCRetries + 1, cause: lastErr}
}

// roundTrip executes the request and decodes either the response body
// or the structured error envelope.
func (w *worker) roundTrip(req *http.Request, out any) error {
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		he := httpapi.ParseError(resp.StatusCode, raw)
		return &remoteError{Status: he.Status, Code: he.Code, Message: he.Message}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// backoff is exponential with ±50% jitter seeded by the site/key, the
// same deterministic-schedule idiom as the sweep engine's job retries.
func backoff(base time.Duration, key string, retry int) time.Duration {
	if retry > 6 {
		retry = 6
	}
	d := base << retry
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, retry)
	jitter := float64(h.Sum64()%1000)/1000.0 - 0.5 // [-0.5, 0.5)
	return d + time.Duration(jitter*float64(d))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
