package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/httpapi"
	"repro/internal/netlist"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/sweep"
)

// maxHorizon bounds simulated time per request: with densities up to 1e6
// transitions/second this caps the per-request event volume.
const maxHorizon = 1e-2

// defaultHorizon is short enough to be interactive and long enough for
// hundreds of transitions at scenario-A densities.
const defaultHorizon = 5e-5

// ---------------------------------------------------------------------
// POST /v1/analyze — the paper's power model on a circuit.

type analyzeRequest struct {
	circuitRequest
	Detail bool `json:"detail,omitempty"` // include per-gate watts
}

type analyzeResponse struct {
	Benchmark     string             `json:"benchmark,omitempty"`
	Gates         int                `json:"gates"`
	Inputs        int                `json:"inputs"`
	Outputs       int                `json:"outputs"`
	Power         float64            `json:"power"`
	InternalPower float64            `json:"internal_power"`
	OutputPower   float64            `json:"output_power"`
	PerGate       map[string]float64 `json:"per_gate,omitempty"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if err := httpapi.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	if err := req.normalize(); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	body, err := s.cachedJSON(r.Context(), "analyze", req, func(context.Context) (any, error) {
		c, err := s.resolve(&req.circuitRequest)
		if err != nil {
			return nil, err
		}
		an, err := core.AnalyzeCircuit(c, req.inputStats(c), core.DefaultParams())
		if err != nil {
			return nil, err
		}
		resp := analyzeResponse{
			Benchmark:     req.Benchmark,
			Gates:         len(c.Gates),
			Inputs:        len(c.Inputs),
			Outputs:       len(c.Outputs),
			Power:         an.Power,
			InternalPower: an.InternalPower,
			OutputPower:   an.OutputPower,
		}
		if req.Detail {
			resp.PerGate = an.PerGate
		}
		return resp, nil
	})
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	writeJSON(w, body)
}

// ---------------------------------------------------------------------
// POST /v1/optimize — the paper's Figure 3 reordering algorithm.

type optimizeRequest struct {
	circuitRequest
	Mode      string `json:"mode,omitempty"`      // full | input-only | delay-rule | delay-neutral
	Objective string `json:"objective,omitempty"` // min | max
	Workers   int    `json:"workers,omitempty"`   // parallel candidate search (0: serial)
	ReturnGNL bool   `json:"return_gnl,omitempty"`
}

func (req *optimizeRequest) normalizeOptimize() (reorder.Mode, reorder.Objective, error) {
	if err := req.normalize(); err != nil {
		return 0, 0, err
	}
	if req.Mode == "" {
		req.Mode = reorder.Full.String()
	}
	mode, err := sweep.ParseMode(req.Mode)
	if err != nil {
		return 0, 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request", "%v", err)
	}
	obj := reorder.Minimize
	switch req.Objective {
	case "", "min":
		req.Objective = "min"
	case "max":
		obj = reorder.Maximize
	default:
		return 0, 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"unknown objective %q (want min or max)", req.Objective)
	}
	if req.Workers < 0 || req.Workers > 256 {
		return 0, 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"workers %d outside [0,256]", req.Workers)
	}
	return mode, obj, nil
}

type optimizeResponse struct {
	Benchmark   string  `json:"benchmark,omitempty"`
	Mode        string  `json:"mode"`
	Objective   string  `json:"objective"`
	Gates       int     `json:"gates"`
	Changed     int     `json:"changed"`
	PowerBefore float64 `json:"power_before"`
	PowerAfter  float64 `json:"power_after"`
	Reduction   float64 `json:"reduction"`
	GNL         string  `json:"gnl,omitempty"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if err := httpapi.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	mode, obj, err := req.normalizeOptimize()
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	body, err := s.cachedJSON(r.Context(), "optimize", req, func(context.Context) (any, error) {
		c, err := s.resolve(&req.circuitRequest)
		if err != nil {
			return nil, err
		}
		ro := reorder.DefaultOptions()
		ro.Mode = mode
		ro.Objective = obj
		ro.Workers = req.Workers
		if ro.Workers == 0 {
			ro.Workers = 1 // the service's job queue owns the parallelism
		}
		rep, err := reorder.Optimize(c, req.inputStats(c), ro)
		if err != nil {
			return nil, err
		}
		resp := optimizeResponse{
			Benchmark:   req.Benchmark,
			Mode:        req.Mode,
			Objective:   req.Objective,
			Gates:       len(c.Gates),
			Changed:     rep.GatesChanged,
			PowerBefore: rep.PowerBefore,
			PowerAfter:  rep.PowerAfter,
			Reduction:   rep.Reduction(),
		}
		if req.ReturnGNL {
			var buf strings.Builder
			if err := netlist.WriteGNL(&buf, rep.Circuit); err != nil {
				return nil, err
			}
			resp.GNL = buf.String()
		}
		return resp, nil
	})
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	writeJSON(w, body)
}

// ---------------------------------------------------------------------
// POST /v1/simulate — switch-level power measurement.

type simulateRequest struct {
	circuitRequest
	Engine  string  `json:"engine,omitempty"`  // bitparallel (the only engine; "bit-parallel" is an alias)
	Delay   string  `json:"delay,omitempty"`   // zero | unit | elmore
	Vectors int     `json:"vectors,omitempty"` // total Monte Carlo vectors, 1..maxSimulateVectors
	Lanes   int     `json:"lanes,omitempty"`   // register-block lane width per pass, 1..512 (64, 256, 512 are the fast widths)
	Horizon float64 `json:"horizon,omitempty"` // simulated seconds
	Tick    float64 `json:"tick,omitempty"`    // timed grid resolution (0: auto)
}

// maxSimulateVectors bounds the Monte Carlo vector total one simulate
// request may ask for (streamed through register blocks of req.Lanes).
const maxSimulateVectors = 4096

func (req *simulateRequest) normalizeSimulate() (sim.DelayMode, error) {
	if err := req.normalize(); err != nil {
		return 0, err
	}
	switch req.Engine {
	case "", "bitparallel", "bit-parallel":
		req.Engine = sim.BitParallel.String() // canonicalize aliases
	default:
		return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"unknown engine %q (bitparallel is the only engine)", req.Engine)
	}
	if req.Delay == "" {
		req.Delay = "zero"
	}
	mode, err := sim.ParseDelayMode(req.Delay)
	if err != nil {
		return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request", "%v", err)
	}
	if req.Vectors == 0 {
		req.Vectors = 16
	}
	if req.Vectors < 1 || req.Vectors > maxSimulateVectors {
		return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"vectors %d outside [1,%d]", req.Vectors, maxSimulateVectors)
	}
	if req.Lanes == 0 {
		req.Lanes = stoch.MaxLanes
	}
	if req.Lanes < 1 || req.Lanes > stoch.MaxPackLanes {
		return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"lanes %d outside [1,%d]", req.Lanes, stoch.MaxPackLanes)
	}
	if req.Tick != 0 {
		if mode == sim.ZeroDelay {
			return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
				"\"tick\" applies only to the timed delay modes (unit, elmore)")
		}
		if req.Tick < 0 || math.IsNaN(req.Tick) || math.IsInf(req.Tick, 0) {
			return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
				"tick %v must be a positive duration in seconds", req.Tick)
		}
	}
	if req.Horizon == 0 {
		req.Horizon = defaultHorizon
	}
	if req.Horizon <= 0 || math.IsNaN(req.Horizon) || req.Horizon > maxHorizon {
		return 0, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"horizon %v outside (0,%v] seconds", req.Horizon, maxHorizon)
	}
	return mode, nil
}

type simulateResponse struct {
	Benchmark     string  `json:"benchmark,omitempty"`
	Engine        string  `json:"engine"`
	Delay         string  `json:"delay"`
	Lanes         int     `json:"lanes"`
	Horizon       float64 `json:"horizon"`
	Energy        float64 `json:"energy"`
	Power         float64 `json:"power"`
	InternalFlips int     `json:"internal_flips"`
	OutputFlips   int     `json:"output_flips"`
	Steps         int     `json:"steps,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if err := httpapi.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	mode, err := req.normalizeSimulate()
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	body, err := s.cachedJSON(r.Context(), "simulate", req, func(context.Context) (any, error) {
		c, err := s.resolve(&req.circuitRequest)
		if err != nil {
			return nil, err
		}
		pi := req.inputStats(c)
		prm := sim.DefaultParams()
		prm.Mode = mode
		prm.Tick = req.Tick
		// The compiled program is width-agnostic and cached per netlist;
		// vectors stream through it in register blocks of req.Lanes lanes.
		prog, err := s.program(req.circuitKey(), c, prm)
		if err != nil {
			if req.Tick != 0 {
				// The tick is legal on its own but not for this
				// circuit's delays (the grid bound): a client error.
				return nil, httpapi.Errorf(http.StatusBadRequest, "invalid_request", "%v", err)
			}
			return nil, err
		}
		rng := rand.New(rand.NewSource(req.Seed))
		total, err := sim.RunVectors(prog, sim.ExponentialDrawer(c.Inputs, pi, req.Horizon, rng), req.Vectors, req.Lanes, req.Horizon)
		if err != nil {
			return nil, err
		}
		resp := simulateResponse{
			Benchmark:     req.Benchmark,
			Engine:        req.Engine,
			Delay:         req.Delay,
			Lanes:         total.Lanes,
			Horizon:       req.Horizon,
			Energy:        total.Energy,
			Power:         total.Power,
			InternalFlips: total.InternalFlips,
			OutputFlips:   total.OutputFlips,
			Steps:         total.Events,
		}
		return resp, nil
	})
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	writeJSON(w, body)
}

// program returns the circuit's compiled program for prm's delay mode,
// reusing one compilation across requests for the same netlist, mode and
// tick, so every distinct grid compiles once. Programs are immutable and
// safe for concurrent runs.
func (s *Server) program(circuitKey string, c *circuit.Circuit, prm sim.Params) (sim.Compiled, error) {
	key := circuitKey + "|prog:mode=" + strconv.Itoa(int(prm.Mode)) + "|tick=" + strconv.FormatFloat(prm.Tick, 'g', -1, 64)
	return s.programs.Get(key, func() (sim.Compiled, error) { return sim.CompileFor(c, prm) })
}

// ---------------------------------------------------------------------
// POST /v1/sweep — the concurrent experiment engine, streamed as JSONL.

type sweepRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Scenarios  []string `json:"scenarios,omitempty"` // default: A and B
	Modes      []string `json:"modes,omitempty"`     // default: full
	Seeds      []int64  `json:"seeds,omitempty"`     // default: one run
	Simulate   bool     `json:"simulate,omitempty"`  // also measure the S column
	Vectors    int      `json:"vectors,omitempty"`   // S-column Monte Carlo vectors per job (default 64)
	Lanes      int      `json:"lanes,omitempty"`     // register-block lane width per pass, 1..512 (default 64)
}

// maxSweepJobs bounds the cross product one request may enqueue.
const maxSweepJobs = 1024

func (req *sweepRequest) toOptions(s *Server) (sweep.Options, error) {
	opt := sweep.DefaultOptions()
	opt.Expt.Lib = s.cfg.Lib
	opt.Simulate = req.Simulate
	opt.Workers = s.cfg.Workers
	opt.Cache = s.circuits
	if len(req.Benchmarks) == 0 {
		return opt, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"\"benchmarks\" must name at least one circuit")
	}
	for _, b := range req.Benchmarks {
		if !knownBenchmark(b) {
			return opt, httpapi.Errorf(http.StatusNotFound, "unknown_benchmark",
				"benchmark %q is neither an embedded classic nor a Table 3 name", b)
		}
	}
	opt.Benchmarks = req.Benchmarks
	if len(req.Scenarios) > 0 {
		opt.Scenarios = opt.Scenarios[:0]
		for _, sc := range req.Scenarios {
			parsed, err := sweep.ParseScenario(sc)
			if err != nil {
				return opt, httpapi.Errorf(http.StatusBadRequest, "invalid_request", "%v", err)
			}
			opt.Scenarios = append(opt.Scenarios, parsed)
		}
	}
	if len(req.Modes) > 0 {
		opt.Modes = opt.Modes[:0]
		for _, m := range req.Modes {
			parsed, err := sweep.ParseMode(m)
			if err != nil {
				return opt, httpapi.Errorf(http.StatusBadRequest, "invalid_request", "%v", err)
			}
			opt.Modes = append(opt.Modes, parsed)
		}
	}
	if req.Vectors != 0 {
		if req.Vectors < 1 || req.Vectors > maxSimulateVectors {
			return opt, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
				"vectors %d outside [1,%d]", req.Vectors, maxSimulateVectors)
		}
		opt.Expt.SimVectors = req.Vectors
	}
	if req.Lanes != 0 {
		if req.Lanes < 1 || req.Lanes > stoch.MaxPackLanes {
			return opt, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
				"lanes %d outside [1,%d]", req.Lanes, stoch.MaxPackLanes)
		}
		opt.Expt.SimLanes = req.Lanes
	}
	opt.Seeds = req.Seeds
	if n := len(sweep.Jobs(opt)); n > maxSweepJobs {
		return opt, httpapi.Errorf(http.StatusBadRequest, "invalid_request",
			"sweep expands to %d jobs, limit %d", n, maxSweepJobs)
	}
	return opt, nil
}

// sweepSummaryLine terminates the JSONL stream.
type sweepSummaryLine struct {
	Failed     int               `json:"failed"`
	Aggregates []sweep.Aggregate `json:"aggregates"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := httpapi.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	opt, err := req.toOptions(s)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	release, err := s.acquire(r.Context())
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	defer release()
	if d := s.cfg.slowdown; d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	fw := &flushWriter{w: w, faults: s.cfg.Faults}
	opt.Stream = fw
	opt.Store = s.cfg.Store
	opt.Resume = s.cfg.Store != nil
	opt.Retries = s.cfg.SweepRetries
	opt.Faults = s.cfg.Faults
	summary, err := sweep.Run(r.Context(), opt)
	enc := json.NewEncoder(fw)
	if err != nil {
		// The stream may be mid-flight: convey the failure in-band. The
		// error line bypasses fault injection — it must always land.
		fw.faults = nil
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	s.metrics.sweepJobs.Add(uint64(len(summary.Results)))
	s.metrics.sweepRetried.Add(uint64(summary.Retried))
	s.metrics.sweepResumed.Add(uint64(summary.Resumed))
	s.metrics.sweepFailed.Add(uint64(summary.Failed))
	enc.Encode(map[string]sweepSummaryLine{
		"summary": {Failed: summary.Failed, Aggregates: summary.Aggregates},
	})
}

// flushWriter flushes after every write so JSONL lines reach the client
// as jobs finish. It carries the fault-injection site for the response
// stream: a scheduled Error fails the write as a broken client
// connection would, which must surface as an in-band error line, not a
// wedged stream.
type flushWriter struct {
	w      http.ResponseWriter
	faults *faults.Plan
	writes int
}

func (fw *flushWriter) Write(b []byte) (int, error) {
	fw.writes++
	if fw.faults.Decide("serve/sweep-stream", strconv.Itoa(fw.writes), 1) == faults.Error {
		return 0, &faults.InjectedError{Site: "serve/sweep-stream", Key: strconv.Itoa(fw.writes), Attempt: 1}
	}
	n, err := fw.w.Write(b)
	if f, ok := fw.w.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}

// ---------------------------------------------------------------------
// GET /healthz, GET /metrics.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := httpapi.RequireGET(r); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if err := httpapi.RequireGET(r); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
