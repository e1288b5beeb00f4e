package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/httpapi"
	"repro/internal/serve/cache"
)

// metrics is the service's counter set, rendered in the Prometheus text
// exposition format at /metrics. Request counters are recorded by the
// endpoint middleware; cache counters are read live from the caches.
type metrics struct {
	mu       sync.Mutex
	requests map[requestKey]uint64
	shed     atomic.Uint64

	// Sweep durability counters, accumulated per completed /v1/sweep.
	sweepJobs    atomic.Uint64 // job results delivered (computed or resumed)
	sweepRetried atomic.Uint64 // extra attempts spent on transient failures
	sweepResumed atomic.Uint64 // jobs replayed from the result store
	sweepFailed  atomic.Uint64 // jobs that exhausted retries
}

type requestKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	return &metrics{requests: make(map[requestKey]uint64)}
}

func (m *metrics) record(endpoint string, code int) {
	m.mu.Lock()
	m.requests[requestKey{endpoint, code}]++
	m.mu.Unlock()
}

// snapshotRequests returns the request counters in deterministic order.
func (m *metrics) snapshotRequests() []struct {
	requestKey
	n uint64
} {
	m.mu.Lock()
	out := make([]struct {
		requestKey
		n uint64
	}, 0, len(m.requests))
	for k, n := range m.requests {
		out = append(out, struct {
			requestKey
			n uint64
		}{k, n})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].endpoint != out[j].endpoint {
			return out[i].endpoint < out[j].endpoint
		}
		return out[i].code < out[j].code
	})
	return out
}

// writeMetrics renders every counter. Cache stats come straight from the
// shared caches, so /metrics is also how the load tests assert that
// cross-request caching and coalescing actually happened.
func (s *Server) writeMetrics(w io.Writer) {
	httpapi.Family(w, "servd_requests_total", "counter", "HTTP requests by endpoint and status code.")
	for _, r := range s.metrics.snapshotRequests() {
		fmt.Fprintf(w, "servd_requests_total{endpoint=%q,code=\"%d\"} %d\n", r.endpoint, r.code, r.n)
	}

	caches := []struct {
		name  string
		stats cache.Stats
	}{
		{"circuit", s.circuits.Stats()},
		{"program", s.programs.Stats()},
		{"response", s.responses.Stats()},
	}
	writeCacheFamily := func(metric, typ, help string, value func(cache.Stats) uint64) {
		httpapi.Family(w, metric, typ, help)
		for _, c := range caches {
			fmt.Fprintf(w, "%s{cache=%q} %d\n", metric, c.name, value(c.stats))
		}
	}
	writeCacheFamily("servd_cache_hits_total", "counter", "Cache lookups served from a completed entry.",
		func(st cache.Stats) uint64 { return st.Hits })
	writeCacheFamily("servd_cache_misses_total", "counter", "Cache lookups that computed a fresh entry.",
		func(st cache.Stats) uint64 { return st.Misses })
	writeCacheFamily("servd_cache_coalesced_total", "counter", "Lookups that joined an identical in-flight computation.",
		func(st cache.Stats) uint64 { return st.Coalesced })
	writeCacheFamily("servd_cache_evictions_total", "counter", "Entries evicted for capacity.",
		func(st cache.Stats) uint64 { return st.Evictions })
	writeCacheFamily("servd_cache_entries", "gauge", "Completed entries currently cached.",
		func(st cache.Stats) uint64 { return uint64(st.Len) })

	httpapi.Gauge(w, "servd_queue_depth", "Jobs currently waiting for a worker slot.", s.queued.Load())
	httpapi.Gauge(w, "servd_inflight_jobs", "Jobs currently holding a worker slot.", len(s.sem))
	httpapi.Counter(w, "servd_shed_total", "Requests rejected with 429 because the queue was full.", s.metrics.shed.Load())

	httpapi.Counter(w, "servd_sweep_jobs_total", "Sweep job results delivered (computed or resumed).", s.metrics.sweepJobs.Load())
	httpapi.Counter(w, "servd_sweep_jobs_retried_total", "Extra sweep job attempts spent on transient failures.", s.metrics.sweepRetried.Load())
	httpapi.Counter(w, "servd_sweep_jobs_resumed_total", "Sweep jobs replayed from the result store instead of recomputed.", s.metrics.sweepResumed.Load())
	httpapi.Counter(w, "servd_sweep_jobs_failed_total", "Sweep jobs that exhausted their retry budget.", s.metrics.sweepFailed.Load())

	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		httpapi.Gauge(w, "servd_store_records", "Distinct results in the result store.", stats.Records)
		httpapi.Counter(w, "servd_store_appends_total", "Records journaled since the store opened.", stats.Appends)
		httpapi.Gauge(w, "servd_store_segments", "Journal segments on disk.", stats.Segments)
		httpapi.Gauge(w, "servd_store_discarded_bytes", "Torn-tail bytes discarded when the journal was opened.", stats.DiscardedBytes)
	}
}
