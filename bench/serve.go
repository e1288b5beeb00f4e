package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/serve"
)

// serveWorkload is the service workload: an in-process serve.Server on
// loopback, driven first open loop at a fixed Poisson rate (latency) and
// then closed loop by clients that each wait for their reply (capacity).
type serveWorkload struct {
	name        string
	benches     []string
	mix         []kindWeight
	repeatEvery int     // one request in this many repeats a recent one byte for byte
	window      int     // how far back a repeat may reach, in distinct requests
	rate        float64 // open-loop arrivals per second
	openFrac    float64 // share of the run spent open loop; the rest is closed loop
	golden      int     // the output digest covers this many leading requests
}

// kindWeight is one request kind and its share of new requests, in percent.
type kindWeight struct {
	kind   string
	weight int
}

// serveMix draws circuits from small to mid-size, so every endpoint has
// cheap and expensive requests; a wide simulation of alu2 costs about a
// hundred times an analysis of c17. Half the requests repeat one of the
// last 200 distinct requests, well inside the 512-entry response cache,
// so every repeat is a cache hit or joins the identical in-flight request.
var serveMix = serveWorkload{
	name:    "serve-mix",
	benches: []string{"c17", "rca8", "cm138a", "cu", "cht", "cmb", "alu2", "f51m"},
	mix: []kindWeight{
		{"analyze", 35}, {"optimize", 30}, {"simulate", 20}, {"simulate_unit", 10}, {"simulate_wide", 5},
	},
	repeatEvery: 2, window: 200, rate: 25, openFrac: 0.4, golden: 200,
}

// request is one generated service call.
type request struct {
	kind string
	path string
	body []byte
}

func (r request) key() string { return r.path + "\x00" + string(r.body) }

// wireRequest is the JSON body of every generated request; omitted fields
// take the service defaults (scenario A, zero delay, 16 vectors, 64 lanes).
type wireRequest struct {
	Benchmark string  `json:"benchmark"`
	Scenario  string  `json:"scenario,omitempty"`
	Seed      int64   `json:"seed"`
	Delay     string  `json:"delay,omitempty"`
	Vectors   int     `json:"vectors,omitempty"`
	Lanes     int     `json:"lanes,omitempty"`
	Horizon   float64 `json:"horizon,omitempty"`
}

// wideHorizon is the simulated time of a 512-lane request, a fifth of the
// service default: at the default, one wide simulation of alu2 holds a
// worker for 0.4 s, and the run's latency tail would hang on how few of
// them coincide.
const wideHorizon = 1e-5

// newRequest builds a request of the given kind. Analyses and
// optimizations use either scenario; simulations use scenario A, whose
// stimulus is interactive-sized at the default horizon.
func newRequest(kind, bench, scenario string, seed int64) request {
	wr := wireRequest{Benchmark: bench, Seed: seed}
	path := "/v1/simulate"
	switch kind {
	case "analyze", "optimize":
		path = "/v1/" + kind
		wr.Scenario = scenario
	case "simulate_unit":
		wr.Delay = "unit"
	case "simulate_wide":
		wr.Vectors, wr.Lanes, wr.Horizon = 512, 512, wideHorizon
	}
	body, err := json.Marshal(wr)
	if err != nil {
		panic(err) // plain struct
	}
	return request{kind: kind, path: path, body: body}
}

// deck deals its items in a fresh shuffled order every len(items) draws,
// so any stretch of draws holds each item close to its exact share.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	order []int
}

func (d *deck[T]) draw() T {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.items))
	}
	v := d.items[d.order[0]]
	d.order = d.order[1:]
	return v
}

// stream returns the workload's request sequence for a seed: an endless,
// deterministic generator. Which kinds, circuits, scenarios and repeats
// come up is dealt from decks rather than drawn independently, so every
// run and seed carries the same mix and only the order, the request seeds
// and so the stimulus differ: a few more wide simulations of alu2 would
// otherwise move a run's capacity by a third. Stream seeds are positive;
// set-up uses seed -1 so its requests never collide with the stream's.
func (w *serveWorkload) stream(seed int64) func() request {
	rng := rand.New(rand.NewSource(seed))
	repeats := &deck[bool]{rng: rng, items: make([]bool, w.repeatEvery)}
	repeats.items[0] = true
	kinds := &deck[string]{rng: rng}
	for _, m := range w.mix {
		for i := 0; i < m.weight; i++ {
			kinds.items = append(kinds.items, m.kind)
		}
	}
	benches := map[string]*deck[string]{}
	scenarios := map[string]*deck[string]{}
	for _, m := range w.mix {
		benches[m.kind] = &deck[string]{rng: rng, items: w.benches}
		scenarios[m.kind] = &deck[string]{rng: rng, items: []string{"A", "B"}}
	}
	var recent []request
	return func() request {
		if repeats.draw() && len(recent) > 0 {
			return recent[rng.Intn(len(recent))]
		}
		kind := kinds.draw()
		r := newRequest(kind, benches[kind].draw(), scenarios[kind].draw(), 1+rng.Int63n(1<<31))
		if recent = append(recent, r); len(recent) > w.window {
			recent = recent[1:]
		}
		return r
	}
}

// arrivals returns n Poisson arrival offsets at the workload's rate.
func (w *serveWorkload) arrivals(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / w.rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// serveEnv is a running service and its clients.
type serveEnv struct {
	handler http.Handler
	http    *http.Server
	done    chan error // Serve's return value
	base    string
	client  *http.Client
	tr      *tracer
	traced  atomic.Bool // the handler records spans only while set
}

// startEnv serves h on a loopback port behind the traced wrapper, with a
// client of workers connections.
func startEnv(h http.Handler, tr *tracer) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		handler: h,
		done:    make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		tr: tr,
	}
	env.http = &http.Server{Handler: env}
	go func() { env.done <- env.http.Serve(ln) }()
	return env, nil
}

// setup starts the service the way servd does and warms it: the
// optimizer's process-wide caches filled (see warmOptimizer), every
// benchmark loaded and its zero-delay and unit-delay programs compiled.
func (w *serveWorkload) setup(tr *tracer) (*serveEnv, error) {
	if err := warmOptimizer(library.Default()); err != nil {
		return nil, err
	}
	env, err := startEnv(serve.New(serve.Config{Workers: workers}), tr)
	if err != nil {
		return nil, err
	}
	for _, b := range w.benches {
		for _, kind := range []string{"simulate", "simulate_unit"} {
			if _, err := env.send(context.Background(), newRequest(kind, b, "A", -1), 0, 0); err != nil {
				env.close()
				return nil, fmt.Errorf("warm-up %s %s: %w", kind, b, err)
			}
		}
	}
	return env, nil
}

// ServeHTTP wraps the service with the traced span around Server.ServeHTTP.
func (env *serveEnv) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !env.traced.Load() {
		env.handler.ServeHTTP(w, r)
		return
	}
	job, _ := strconv.Atoi(r.Header.Get("X-Bench-Job"))
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	sp := env.tr.begin(job, parent, "serve", r.Header.Get("X-Bench-Kind"))
	env.handler.ServeHTTP(w, r)
	sp.end()
}

// close stops the service and waits for it to exit.
func (env *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := env.http.Shutdown(ctx)
	if serr := <-env.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	env.client.CloseIdleConnections()
	return err
}

// reply is one completed call.
type reply struct {
	status  int
	body    []byte
	err     error
	done    time.Time
	gotConn time.Time // when the client handed the request a connection
	from    time.Time // due time (open loop) or send time (closed loop)
}

func (r reply) latency() time.Duration { return r.done.Sub(r.from) }

// send issues one request. With tracing on, job and span identify the
// request's root span to the server-side span.
func (env *serveEnv) send(ctx context.Context, req request, job int, span int64) (reply, error) {
	var rep reply
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, env.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return rep, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set("X-Bench-Job", strconv.Itoa(job))
		hr.Header.Set("X-Bench-Span", strconv.FormatInt(span, 10))
		hr.Header.Set("X-Bench-Kind", req.kind)
	}
	hr = hr.WithContext(httptrace.WithClientTrace(hr.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { rep.gotConn = time.Now() },
	}))
	resp, err := env.client.Do(hr)
	if err != nil {
		return rep, err
	}
	rep.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.status = resp.StatusCode
	rep.done = time.Now()
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusOK {
		return rep, fmt.Errorf("%s: status %d: %s", req.path, rep.status, strings.TrimSpace(string(rep.body)))
	}
	return rep, nil
}

// serveRun is the measured part of one service run.
type serveRun struct {
	open      []request
	openReps  []reply
	openSpan  interval
	late      []time.Duration // how late the generator dispatched each request
	closed    []request
	closedRep []reply
	halves    [2]interval      // the closed loop's untraced and traced halves
	closedN   [2]int           // their completions
	cache     [2]cacheCounters // /metrics before and after the run
	alloc     uint64           // bytes allocated on the Go heap, client and service
}

type interval struct{ start, end time.Time }

// maxOutstanding bounds the open-loop requests in flight; beyond it the
// generator counts a request as failed instead of starting a goroutine.
const maxOutstanding = 2048

// measure runs the open-loop step, then the closed-loop step. The stream
// continues from one step into the next.
func (w *serveWorkload) measure(ctx context.Context, env *serveEnv, seed int64, seconds float64, traced bool) (*serveRun, error) {
	run := &serveRun{}
	var err error
	if run.cache[0], err = env.cacheCounters(); err != nil {
		return nil, err
	}
	a := heapAllocs()
	next := w.stream(seed)
	openSecs := seconds * w.openFrac
	n := max(int(openSecs*w.rate), w.golden)
	due := w.arrivals(seed, n)
	for range due {
		run.open = append(run.open, next())
	}
	env.traced.Store(traced)
	run.openSpan.start = time.Now()
	run.openReps, run.late = w.openLoop(ctx, env, run.open, due)
	run.openSpan.end = time.Now()

	// Closed loop: the untraced half, then (in a traced run) the traced
	// half, so their throughput ratio is the tracing overhead.
	closedSecs := seconds - openSecs
	halves := 1
	if traced {
		halves = 2
	}
	var mu sync.Mutex
	take := func() (int, request) {
		mu.Lock()
		defer mu.Unlock()
		r := next()
		run.closed = append(run.closed, r)
		run.closedRep = append(run.closedRep, reply{})
		return len(run.closed) - 1, r
	}
	for h := 0; h < halves; h++ {
		env.traced.Store(h == 1)
		start := time.Now()
		deadline := start.Add(time.Duration(closedSecs / float64(halves) * float64(time.Second)))
		var wg sync.WaitGroup
		var completed atomic.Int64
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					i, r := take()
					rep := env.call(ctx, r, len(run.open)+i, time.Now())
					mu.Lock()
					run.closedRep[i] = rep
					mu.Unlock()
					if rep.err == nil {
						completed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		run.closedN[h] = int(completed.Load())
		run.halves[h] = interval{start, time.Now()}
	}
	env.traced.Store(false)
	run.alloc = heapAllocs() - a
	if run.cache[1], err = env.cacheCounters(); err != nil {
		return nil, err
	}
	return run, ctx.Err()
}

// call sends one request and times it from `from`: its due time in the
// open loop, the send time in the closed loop. With tracing on it records
// the request's root span and the wait for a connection.
func (env *serveEnv) call(ctx context.Context, r request, job int, from time.Time) reply {
	traced := env.traced.Load()
	var root int64
	if traced {
		root = env.tr.newID()
	}
	rep, err := env.send(ctx, r, job, root)
	rep.from, rep.err = from, err
	if rep.done.IsZero() {
		rep.done = time.Now()
	}
	if traced {
		env.tr.add(job, root, 0, "loadgen", "request", from, rep.done)
		if !rep.gotConn.IsZero() {
			env.tr.add(job, 0, root, "loadgen", "conn_wait", from, rep.gotConn)
		}
	}
	return rep
}

// openLoop sends reqs at their due offsets regardless of completions, as
// independent users would, and times each from its due time, so a stall
// also delays every request due while it lasts.
func (w *serveWorkload) openLoop(ctx context.Context, env *serveEnv, reqs []request, due []time.Duration) ([]reply, []time.Duration) {
	reps := make([]reply, len(reqs))
	late := make([]time.Duration, len(reqs))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(at)
		select {
		case sem <- struct{}{}:
		default:
			reps[i] = reply{err: fmt.Errorf("generator backlog of %d requests full", maxOutstanding), from: at, done: time.Now()}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			reps[i] = env.call(ctx, reqs[i], i, at)
		}(i)
	}
	wg.Wait()
	return reps, late
}

// cacheCounters are the service's cache counters as /metrics reports them.
type cacheCounters map[string]float64

// cacheCounters scrapes the cache and shed counters from /metrics.
func (env *serveEnv) cacheCounters() (cacheCounters, error) {
	resp, err := env.client.Get(env.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := cacheCounters{}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !(strings.HasPrefix(name, "servd_cache_") || name == "servd_shed_total") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// hitPct is the share of a cache's lookups during the run served from a
// completed entry.
func (run *serveRun) hitPct(cache string) float64 {
	d := func(metric string) float64 {
		k := fmt.Sprintf("servd_cache_%s_total{cache=%q}", metric, cache)
		return run.cache[1][k] - run.cache[0][k]
	}
	hits := d("hits")
	lookups := hits + d("misses") + d("coalesced")
	if lookups == 0 {
		return 0
	}
	return 100 * hits / lookups
}

func (run *serveRun) counterDelta(name string) float64 {
	return run.cache[1][name] - run.cache[0][name]
}

// closedRate is the closed-loop completions per second of one half, net
// of steal.
func (run *serveRun) closedRate(half int, clock *stealClock) float64 {
	h := run.halves[half]
	return float64(run.closedN[half]) / clock.net(h.start, h.end).Seconds()
}

// latencies are the replies' latencies in milliseconds, each net of the
// steal during it.
func latencies(reps []reply, clock *stealClock) []float64 {
	var out []float64
	for _, rep := range reps {
		if rep.err == nil {
			out = append(out, float64(clock.net(rep.from, rep.done).Microseconds())/1e3)
		}
	}
	return out
}

// computed are the closed-loop replies to requests the run had not sent
// before: the ones the service had to compute rather than answer from its
// response cache.
func (run *serveRun) computed() []reply {
	seen := map[string]bool{}
	for _, r := range run.open {
		seen[r.key()] = true
	}
	var out []reply
	for i, r := range run.closed {
		if !seen[r.key()] {
			seen[r.key()] = true
			out = append(out, run.closedRep[i])
		}
	}
	return out
}

// endToEnd computes the service's end-to-end metrics from the closed
// loop, every time net of steal (see stealClock). The latency is that of
// computed requests: cache hits answer in a tenth of a millisecond and
// make up half the requests, so the median of all requests sat on the
// edge between hits and computed requests, and its quartiles over ten
// runs spread a fifth to a third of it. Hits still count in throughput. The open loop's latencies,
// which on a shared host swing with every burst of steal, are printed but
// not bounded.
func (run *serveRun) endToEnd(res *outcome, clock *stealClock) error {
	if err := res.setLatency(latencies(run.computed(), clock)); err != nil {
		return err
	}
	res.set("throughput_per_s", run.closedRate(0, clock), run.closedN[0])
	n := len(run.open) + len(run.closed)
	res.set("alloc_mb_per_op", float64(run.alloc)/float64(n)/(1<<20), n)
	return nil
}

// check verifies every reply: status 200, byte-identical bodies for
// repeated requests, every analyze result equal to core.AnalyzeCircuit's
// and every optimize and simulate result within its invariants. It returns
// the distinct (request, response) pairs of the first golden requests.
func (w *serveWorkload) check(run *serveRun, res *outcome) []exchange {
	reqs := append(append([]request(nil), run.open...), run.closed...)
	reps := append(append([]reply(nil), run.openReps...), run.closedRep...)
	bodies := map[string][]byte{}
	var golden []exchange
	circuits := map[string]*circuit.Circuit{}
	load := func(name string) (*circuit.Circuit, error) {
		if c, ok := circuits[name]; ok {
			return c, nil
		}
		c, err := mcnc.Load(name, expt.DefaultOptions().Lib)
		circuits[name] = c
		return c, err
	}
	for i, r := range reqs {
		rep := reps[i]
		res.attempted++
		if rep.err != nil {
			res.failed++
			res.fail("request %d %s %s: %v", i, r.path, r.body, rep.err)
			continue
		}
		if prev, ok := bodies[r.key()]; ok {
			if !bytes.Equal(prev, rep.body) {
				res.fail("request %d %s %s: repeated request returned different bytes", i, r.path, r.body)
			}
			continue
		}
		bodies[r.key()] = rep.body
		if i < w.golden {
			golden = append(golden, exchange{Path: r.path, Request: r.body, Response: rep.body})
		}
		if err := verifyReply(r, rep.body, load); err != nil {
			res.fail("request %d %s %s: %v", i, r.path, r.body, err)
		}
	}
	return golden
}

// verifyReply checks one distinct response against its request.
func verifyReply(r request, body []byte, load func(string) (*circuit.Circuit, error)) error {
	var wr wireRequest
	if err := json.Unmarshal(r.body, &wr); err != nil {
		return err
	}
	switch r.kind {
	case "analyze":
		var got struct {
			Gates         int
			Power         float64
			InternalPower float64 `json:"internal_power"`
			OutputPower   float64 `json:"output_power"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		// Re-derive the answer from the public model: the request's
		// scenario draw, then core.AnalyzeCircuit.
		c, err := load(wr.Benchmark)
		if err != nil {
			return err
		}
		eo := expt.DefaultOptions()
		eo.Seed = wr.Seed
		sc := expt.ScenarioA
		if wr.Scenario == "B" {
			sc = expt.ScenarioB
		}
		an, err := core.AnalyzeCircuit(c, expt.InputStats(c, sc, eo), core.DefaultParams())
		if err != nil {
			return err
		}
		if got.Gates != len(c.Gates) || got.Power != an.Power || got.InternalPower != an.InternalPower || got.OutputPower != an.OutputPower {
			return fmt.Errorf("analyze answered %+v, model gives power %g internal %g output %g", got, an.Power, an.InternalPower, an.OutputPower)
		}
	case "optimize":
		var got struct {
			PowerBefore float64 `json:"power_before"`
			PowerAfter  float64 `json:"power_after"`
			Reduction   float64
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !(got.PowerAfter > 0 && got.PowerAfter <= got.PowerBefore && got.Reduction >= 0 && got.Reduction < 1) {
			return fmt.Errorf("optimize answered %+v", got)
		}
	default:
		var got struct {
			Lanes         int
			Energy, Power float64
			Horizon       float64
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := max(wr.Vectors, 16)
		p := got.Energy / (float64(want) * got.Horizon)
		if got.Lanes != want || !(got.Energy > 0) || math.Abs(got.Power-p) > 1e-9*p {
			return fmt.Errorf("simulate answered %+v", got)
		}
	}
	return nil
}
