// Package serve is the optimization-as-a-service layer: an HTTP/JSON
// front end over the same engines the batch CLIs drive, built around the
// shared state that makes a long-running process worth having:
//
//   - a content-hash-keyed LRU of parsed + technology-mapped circuits
//     (internal/serve/cache, shared with the sweep engine), so a
//     benchmark or request-supplied GNL netlist is parsed once no matter
//     how many requests touch it;
//   - an LRU of compiled simulation programs (sim.Compiled), which are
//     immutable and safe for concurrent runs, keyed by circuit content,
//     delay mode and tick;
//   - a response cache with singleflight coalescing: every response is a
//     pure function of its request (deterministic FNV-style seeding,
//     sorted-map JSON encoding), so identical requests are served the
//     same bytes, and identical concurrent requests compute once;
//   - a bounded job queue: Config.Workers jobs run at a time,
//     Config.QueueDepth may wait, and everything beyond that is shed
//     with 429 instead of queueing without bound. Cache hits and
//     coalesced joins bypass the queue entirely — a saturated server
//     still answers warm requests;
//   - per-request deadlines (Config.RequestTimeout) via context, honored
//     while queued and by the streaming sweep;
//   - observability: /healthz, and Prometheus-style text counters at
//     /metrics (requests by endpoint and code, cache hits/misses/
//     coalesced/evictions, queue depth, shed count, sweep job/retry/
//     resume/failure counts, result-store stats);
//   - durable sweeps: with Config.Store set, /v1/sweep journals every
//     successful job into the content-addressed result store and
//     resumes from it, so an idempotent re-POST of the same sweep —
//     including after a server crash — replays warm results instead of
//     recomputing (see docs/resume.md).
//
// Endpoints: POST /v1/analyze, /v1/optimize, /v1/simulate (JSON in/out)
// and POST /v1/sweep (streaming JSONL). See docs/api.md for the wire
// format.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/library"
	"repro/internal/serve/cache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Config sizes the service. The zero value is usable: every field has a
// production default.
type Config struct {
	// Lib is the cell library circuits are mapped onto (nil: the paper's
	// Table 2 default). All caches assume one library per server.
	Lib *library.Library
	// Workers bounds concurrently computing jobs (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker slot; arrivals beyond
	// it are shed with 429 (0: 4×Workers, at least 16).
	QueueDepth int
	// RequestTimeout is the per-request deadline, enforced while queued
	// and inside cancellation-aware jobs (0: 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; larger ones get 413 (0: 1 MiB).
	MaxBodyBytes int64
	// Cache capacities, in entries (0: defaults 128 / 128 / 512).
	CircuitCacheSize  int
	ProgramCacheSize  int
	ResponseCacheSize int

	// Store, when set, journals every successful sweep job and resumes
	// /v1/sweep requests from it: re-POSTing a sweep whose jobs are
	// already journaled replays them without recomputing, across server
	// restarts. The server does not own the store; the caller opens and
	// closes it (cmd/servd does both).
	Store *store.Store
	// SweepRetries is the per-job retry budget for transient sweep
	// failures (0: no retries).
	SweepRetries int
	// Faults, when non-nil, threads a deterministic fault-injection plan
	// through sweep jobs and the response stream. Testing only; nil in
	// production.
	Faults *faults.Plan

	// slowdown artificially lengthens every computed (non-cached) job.
	// Test hook: makes queue saturation and coalescing deterministic.
	slowdown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Lib == nil {
		c.Lib = library.Default()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = max(4*c.Workers, 16)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.CircuitCacheSize <= 0 {
		c.CircuitCacheSize = 128
	}
	if c.ProgramCacheSize <= 0 {
		c.ProgramCacheSize = 128
	}
	if c.ResponseCacheSize <= 0 {
		c.ResponseCacheSize = 512
	}
	return c
}

// Server is the HTTP service. Create with New; it is an http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	circuits  *sweep.CircuitCache              // parsed+mapped circuits, shared with /v1/sweep jobs
	programs  *cache.LRU[string, sim.Compiled] // compiled programs per netlist, delay mode and tick
	responses *cache.LRU[string, []byte]       // serialized response bodies
	sem       chan struct{}                    // worker slots
	queued    atomic.Int64                     // jobs waiting for a slot
	metrics   *metrics
}

// New builds a Server from cfg (zero value: all defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		circuits:  sweep.NewCircuitCache(cfg.CircuitCacheSize),
		programs:  cache.New[string, sim.Compiled](cfg.ProgramCacheSize),
		responses: cache.New[string, []byte](cfg.ResponseCacheSize),
		sem:       make(chan struct{}, cfg.Workers),
		metrics:   newMetrics(),
	}
	s.mux.HandleFunc("/v1/analyze", s.endpoint("analyze", s.handleAnalyze))
	s.mux.HandleFunc("/v1/optimize", s.endpoint("optimize", s.handleOptimize))
	s.mux.HandleFunc("/v1/simulate", s.endpoint("simulate", s.handleSimulate))
	s.mux.HandleFunc("/v1/sweep", s.endpoint("sweep", s.handleSweep))
	s.mux.HandleFunc("/healthz", s.endpoint("healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.endpoint("metrics", s.handleMetrics))
	return s
}

// ServeHTTP applies the per-request deadline and dispatches.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// endpoint wraps a handler with status-code metrics.
func (s *Server) endpoint(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.metrics.record(name, sw.Status())
	}
}

// statusWriter captures the status code for metrics and forwards Flush
// (the sweep endpoint streams).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// ---------------------------------------------------------------------
// Structured errors.

// httpError is a structured API error: it renders as
// {"error":{"code":..., "message":...}} with the given status.
type httpError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *httpError) Error() string { return e.Code + ": " + e.Message }

func errf(status int, code, format string, args ...any) *httpError {
	return &httpError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// writeError renders any error as structured JSON; non-httpErrors become
// 500 internal.
func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	if !errors.As(err, &he) {
		he = errf(http.StatusInternalServerError, "internal", "%v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.Status)
	json.NewEncoder(w).Encode(map[string]*httpError{"error": he})
}

// writeJSON sends a precomputed response body.
func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// ---------------------------------------------------------------------
// Bounded job queue.

// acquire claims a worker slot, waiting in the bounded queue if all are
// busy. It fails fast with 429 when the queue is full and with 503 when
// the request's deadline expires while queued.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.metrics.shed.Add(1)
		return nil, errf(http.StatusTooManyRequests, "overloaded",
			"all %d workers busy and queue of %d full; retry later", s.cfg.Workers, s.cfg.QueueDepth)
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, errf(http.StatusServiceUnavailable, "deadline",
			"request deadline expired while queued: %v", ctx.Err())
	}
}

// cachedJSON serves one deterministic endpoint: the normalized request is
// content-hashed into a response-cache key; on a miss the compute runs on
// a bounded worker slot, and concurrent identical requests coalesce onto
// one computation. Cache hits and coalesced joins never touch the queue.
func (s *Server) cachedJSON(ctx context.Context, endpoint string, normReq any, compute func(ctx context.Context) (any, error)) ([]byte, error) {
	kb, err := json.Marshal(normReq)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "internal", "hashing request: %v", err)
	}
	sum := sha256.Sum256(kb)
	key := endpoint + ":" + hex.EncodeToString(sum[:])
	return s.responses.Get(key, func() ([]byte, error) {
		release, err := s.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		if d := s.cfg.slowdown; d > 0 {
			time.Sleep(d)
		}
		if err := ctx.Err(); err != nil {
			return nil, errf(http.StatusServiceUnavailable, "deadline", "request deadline expired: %v", err)
		}
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, errf(http.StatusInternalServerError, "internal", "encoding response: %v", err)
		}
		return append(body, '\n'), nil
	})
}

// loadBenchmark resolves a benchmark through the shared circuit cache.
func (s *Server) loadBenchmark(name string) (*circuit.Circuit, error) {
	return s.circuits.Get(sweep.CircuitKey(name), func() (*circuit.Circuit, error) {
		return loadBenchmarkCircuit(name, s.cfg.Lib)
	})
}
