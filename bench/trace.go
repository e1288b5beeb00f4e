package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job (or
// one service request) share Job; Parent is the ID of the span that made
// the call, 0 for a root.
type span struct {
	Job    int    `json:"job"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_us"` // microseconds since the trace began
	End    int64  `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration(s.End-s.Start) * time.Microsecond }

// key names the layer boundary, e.g. "reorder.optimize".
func (s span) key() string { return s.Layer + "." + s.Op }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0     time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	counts map[string]int // work done, counted at the same boundaries
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int{}} }

// count adds n to the named work counter.
func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// counter reads a work counter.
func (t *tracer) counter(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// region is an open span; end closes and records it.
type region struct {
	t *tracer
	s span
}

// begin opens a span now and allocates its ID, so children can name it
// as their parent before it ends.
func (t *tracer) begin(job int, parent int64, layer, op string) region {
	if t == nil {
		return region{}
	}
	return region{t, span{Job: job, ID: t.newID(), Parent: parent, Layer: layer, Op: op, Start: t.since(time.Now())}}
}

// end records the span with the current time as its end.
func (r region) end() { r.endAt(time.Now()) }

func (r region) endAt(at time.Time) {
	if r.t == nil {
		return
	}
	r.s.End = r.t.since(at)
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

// id is the span's ID, 0 when tracing is off.
func (r region) id() int64 { return r.s.ID }

// newID allocates a span ID ahead of recording the span, so a child
// recorded elsewhere can name it as its parent.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a span whose start and end were observed elsewhere (a
// request's due time, a connection handed over by the HTTP client). An id
// of 0 allocates one.
func (t *tracer) add(job int, id, parent int64, layer, op string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	r := region{t, span{Job: job, ID: id, Parent: parent, Layer: layer, Op: op, Start: t.since(start)}}
	r.endAt(end)
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums span durations and calls by layer key, and self times:
// a span's duration minus what its direct children cover (the children of
// one span never overlap, its caller makes them in turn).
type layerTimes struct {
	total map[string]time.Duration
	calls map[string]int
	self  map[string]time.Duration
}

func sumLayers(spans []span) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, calls: map[string]int{}, self: map[string]time.Duration{}}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		lt.total[s.key()] += s.dur()
		lt.calls[s.key()]++
		lt.self[s.key()] += s.dur()
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lt.self[p.key()] -= s.dur()
		}
	}
	return lt
}

// pct is 100·part/whole, 0 for an empty whole.
func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// spanFile names the JSONL file a traced run writes its spans to.
func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/%s-seed%d-%d.spans.jsonl", dir, workload, seed, time.Now().UnixNano())
}
