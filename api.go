package repro

import (
	"context"
	"io"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/library"
	"repro/internal/mapper"
	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/internal/reorder"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Core types re-exported for users of the facade.
type (
	// Circuit is a mapped combinational gate-level netlist.
	Circuit = circuit.Circuit
	// Instance is one gate of a Circuit.
	Instance = circuit.Instance
	// Signal is the (equilibrium probability, transition density) pair
	// that characterizes a net.
	Signal = stoch.Signal
	// Library is a cell library (Table 2 of the paper).
	Library = library.Library
	// Network is a technology-independent logic network (parsed BLIF).
	Network = netlist.Network
	// PowerParams holds the electrical constants of the power model.
	PowerParams = core.Params
	// OptimizeOptions configures the reordering optimizer, including the
	// Workers field bounding its parallel candidate-search phase (0 =
	// GOMAXPROCS; results are bit-identical for any worker count).
	OptimizeOptions = reorder.Options
	// OptimizeReport summarizes an optimization run.
	OptimizeReport = reorder.Report
	// SimParams configures the switch-level simulator.
	SimParams = sim.Params
	// SimResult is a switch-level measurement.
	SimResult = sim.Result
	// SimEngine names the simulation backend. The compiled bit-parallel
	// engine (EngineBitParallel, the zero value) is the only one.
	SimEngine = sim.Engine
	// SimProgram is a circuit compiled for the zero-delay bit-parallel
	// engine (flat levelized word-op array; immutable, safe for
	// concurrent runs).
	SimProgram = sim.Program
	// TimedSimProgram is a circuit compiled for the timed bit-parallel
	// engine: per-gate word ops driven by a word-level timing wheel on a
	// discrete tick grid (unit or Elmore delays, quantized per
	// SimParams.Tick).
	TimedSimProgram = sim.TimedProgram
	// TimedStimulus is a bit-packed Monte Carlo stimulus on a shared tick
	// grid for the timed bit-parallel engine.
	TimedStimulus = stoch.TimedStimulus
	// BitSimResult is a bit-parallel measurement: totals across lanes
	// plus optional per-lane breakdowns.
	BitSimResult = sim.BitResult
	// PackedStimulus is a bit-packed Monte Carlo stimulus: up to 64
	// independent input-vector sequences, one per bit lane.
	PackedStimulus = stoch.PackedStimulus
	// DelayParams holds the RC constants of the timing model.
	DelayParams = delay.Params
	// TimingResult is a static timing analysis.
	TimingResult = delay.Result
	// SweepOptions configures a concurrent benchmark × scenario × mode ×
	// seed sweep.
	SweepOptions = sweep.Options
	// SweepJob identifies one cell of the sweep cross product.
	SweepJob = sweep.Job
	// SweepResult is one finished sweep job (JSONL-serializable).
	SweepResult = sweep.Result
	// SweepSummary is a completed sweep: ordered results plus
	// scenario × mode aggregates.
	SweepSummary = sweep.Summary
	// IncrementalAnalysis maintains a circuit's power analysis under
	// local mutation, re-evaluating only fan-out cones.
	IncrementalAnalysis = core.Incremental
	// ServeConfig sizes the HTTP optimization service: worker and queue
	// bounds, per-request deadline, body cap, and the capacities of the
	// three cross-request caches (circuits, compiled programs,
	// responses). The zero value uses production defaults.
	ServeConfig = serve.Config
	// Service is the HTTP/JSON optimization service (an http.Handler):
	// /v1/analyze, /v1/optimize, /v1/simulate, /v1/sweep (streaming
	// JSONL), /healthz and Prometheus-style /metrics, with cross-request
	// caching, singleflight request coalescing, and bounded-queue 429
	// shedding. cmd/servd is its CLI front end.
	Service = serve.Server
	// SweepCircuitCache is the shared parsed-circuit store (LRU +
	// singleflight) a sweep can keep warm across runs via
	// SweepOptions.Cache; the Service shares one instance across all its
	// endpoints.
	SweepCircuitCache = sweep.CircuitCache
	// GateAnalysis is the power model's evaluation of a single gate.
	GateAnalysis = core.GateAnalysis
	// CircuitAnalysis is the power model's evaluation of a circuit.
	CircuitAnalysis = core.CircuitAnalysis
	// ResultStore is the content-addressed, append-only, crash-safe
	// journal of finished sweep jobs. Wire one into SweepOptions.Store
	// (with Resume) or ServeConfig.Store for checkpoint/resume sweeps.
	ResultStore = store.Store
	// ResultStoreOptions configures a ResultStore (segment rotation size,
	// per-append fsync).
	ResultStoreOptions = store.Options
	// SweepFailure is one failed sweep job's structured failure record:
	// what failed, how (error vs. panic), and after how many attempts.
	SweepFailure = sweep.FailureRecord
	// FaultPlan is a deterministic, seeded fault-injection schedule for
	// chaos testing sweeps, the result store, and the service. A nil plan
	// injects nothing.
	FaultPlan = faults.Plan
)

// Optimization modes (see reorder.Mode).
const (
	ModeFull         = reorder.Full
	ModeInputOnly    = reorder.InputOnly
	ModeDelayRule    = reorder.DelayRule
	ModeDelayNeutral = reorder.DelayNeutral
)

// EngineBitParallel is the simulation engine (see sim.Engine): the
// circuit compiles once and evaluates up to MaxSimVectors Monte Carlo
// vectors per pass — 64 lanes per machine word, in register blocks of up
// to 8 words (structure-of-arrays, so 256- and 512-lane blocks
// auto-vectorize) — in every delay mode: the levelized program under zero
// delay, the timed word-op program (integer-tick timing wheel) under unit
// or Elmore delay (unit-delay quantization is exact; Elmore delays snap
// to within half a tick, see SimParams.Tick).
const EngineBitParallel = sim.BitParallel

// MaxSimVectors is the lane capacity of one packed bit-parallel run: the
// widest register block (8 words × 64 lanes). Lane counts of 64, 256 and
// 512 hit the specialized one-, four- and eight-word kernels.
const MaxSimVectors = stoch.MaxPackLanes

// DefaultLibrary returns the paper's Table 2 cell library.
func DefaultLibrary() *Library { return library.Default() }

// DefaultPowerParams returns the electrical constants used throughout the
// reproduction.
func DefaultPowerParams() PowerParams { return core.DefaultParams() }

// DefaultOptimizeOptions returns the paper's configuration: full
// transistor reordering, minimizing model power.
func DefaultOptimizeOptions() OptimizeOptions { return reorder.DefaultOptions() }

// DefaultSimParams returns the default switch-level simulation setup.
func DefaultSimParams() SimParams { return sim.DefaultParams() }

// DefaultDelayParams returns the default RC timing constants.
func DefaultDelayParams() DelayParams { return delay.DefaultParams() }

// ParseBLIF reads a BLIF model (hand-rolled parser, .names and .gate).
func ParseBLIF(r io.Reader) (*Network, error) { return netlist.ParseBLIF(r) }

// WriteBLIF writes a network back to BLIF.
func WriteBLIF(w io.Writer, nw *Network) error { return netlist.WriteBLIF(w, nw) }

// ReadGNL reads this repository's native gate-netlist format, which
// records the chosen transistor ordering per gate.
func ReadGNL(r io.Reader, lib *Library) (*Circuit, error) { return netlist.ReadGNL(r, lib) }

// WriteGNL writes a circuit with explicit configurations.
func WriteGNL(w io.Writer, c *Circuit) error { return netlist.WriteGNL(w, c) }

// MapNetwork lowers a parsed BLIF network onto the library.
func MapNetwork(nw *Network, lib *Library) (*Circuit, error) { return mapper.Map(nw, lib) }

// LoadBenchmark returns a benchmark circuit by name: one of the embedded
// classics (repro.EmbeddedBenchmarks) or a Table 3 stand-in.
func LoadBenchmark(name string, lib *Library) (*Circuit, error) { return mcnc.Load(name, lib) }

// Benchmarks lists the Table 3 benchmark names.
func Benchmarks() []string { return mcnc.Names() }

// EmbeddedBenchmarks lists the hand-written classic netlists.
func EmbeddedBenchmarks() []string { return mcnc.EmbeddedNames() }

// UniformInputs assigns the same statistics to every primary input.
func UniformInputs(c *Circuit, p, d float64) map[string]Signal {
	stats := make(map[string]Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = Signal{P: p, D: d}
	}
	return stats
}

// EstimatePower evaluates the paper's power model on the whole circuit.
func EstimatePower(c *Circuit, pi map[string]Signal) (*CircuitAnalysis, error) {
	return core.AnalyzeCircuit(c, pi, core.DefaultParams())
}

// Optimize runs the paper's optimization algorithm (Fig. 3) and returns
// the reordered circuit with a before/after power report. In the pure
// power modes the per-gate candidate search fans out over opt.Workers
// goroutines (two-phase: read-only parallel search, serial commit) with
// bit-identical reports under any worker count.
func Optimize(c *Circuit, pi map[string]Signal, opt OptimizeOptions) (*OptimizeReport, error) {
	return reorder.Optimize(c, pi, opt)
}

// BestAndWorst returns the minimum- and maximum-power reorderings — the
// pair Table 3 compares by switch-level simulation.
func BestAndWorst(c *Circuit, pi map[string]Signal, opt OptimizeOptions) (best, worst *OptimizeReport, err error) {
	return reorder.BestAndWorst(c, pi, opt)
}

// Simulate measures power by switch-level simulation under exponential
// input waveforms realizing the given statistics: one vector on the
// compiled engine, in any delay mode.
func Simulate(c *Circuit, pi map[string]Signal, horizon float64, seed int64, prm SimParams) (*SimResult, error) {
	rng := newRand(seed)
	waves, err := sim.GenerateWaveforms(c.Inputs, pi, horizon, rng)
	if err != nil {
		return nil, err
	}
	return sim.Run(c, waves, horizon, prm)
}

// SimulateVectors measures power on the compiled bit-parallel engines:
// vectors (1..MaxSimVectors) independent Monte Carlo stimulus streams
// packed into the bit lanes of one register block and evaluated in one
// pass — on the levelized program in zero-delay mode, on the timed
// program (glitches included) under unit or Elmore delay. The result's
// Power is the mean per-lane power.
func SimulateVectors(c *Circuit, pi map[string]Signal, horizon float64, vectors int, seed int64, prm SimParams) (*BitSimResult, error) {
	rng := newRand(seed)
	if prm.Mode != sim.ZeroDelay {
		prog, err := sim.CompileTimed(c, prm)
		if err != nil {
			return nil, err
		}
		laneWaves, err := sim.GenerateLaneWaveforms(c.Inputs, pi, horizon, vectors, rng)
		if err != nil {
			return nil, err
		}
		stim, err := prog.PackTimed(laneWaves, horizon)
		if err != nil {
			return nil, err
		}
		return prog.Run(stim)
	}
	stim, err := sim.GeneratePackedWaveforms(c.Inputs, pi, horizon, vectors, rng)
	if err != nil {
		return nil, err
	}
	return sim.RunPacked(c, stim, prm)
}

// CompileSimulation lowers the circuit into the zero-delay bit-parallel
// engine's flat word-op program. Compile once, then Run many packed
// stimuli — concurrent runs on one program are safe.
func CompileSimulation(c *Circuit, prm SimParams) (*SimProgram, error) {
	return sim.Compile(c, prm)
}

// CompileTimedSimulation lowers the circuit into the timed bit-parallel
// engine's per-gate word-op program on a discrete tick grid (prm.Tick; 0
// resolves automatically — exactly the unit delay in UnitDelay mode, the
// fastest gate delay / 4 in ElmoreDelay mode). Compile once, then Run
// many timed stimuli packed at the program's Tick.
func CompileTimedSimulation(c *Circuit, prm SimParams) (*TimedSimProgram, error) {
	return sim.CompileTimed(c, prm)
}

// CircuitDelay runs static timing analysis with the Elmore stack model.
func CircuitDelay(c *Circuit, prm DelayParams) (*TimingResult, error) {
	return delay.CircuitDelay(c, prm)
}

// DefaultSweepOptions returns the paper's full sweep: every Table 3
// benchmark under both scenarios, full reordering, simulation on.
func DefaultSweepOptions() SweepOptions { return sweep.DefaultOptions() }

// RunSweep fans the configured benchmark × scenario × mode × seed jobs
// across a bounded worker pool. Results are deterministic for a given
// configuration regardless of worker count; ctx cancels queued jobs.
func RunSweep(ctx context.Context, opt SweepOptions) (*SweepSummary, error) {
	return sweep.Run(ctx, opt)
}

// NewIncrementalAnalysis analyzes the circuit once in full and returns an
// engine that keeps the analysis current under gate reconfiguration
// (SetConfig) and input-statistics changes (SetInputs), re-evaluating
// only the fan-out cone of each change.
func NewIncrementalAnalysis(c *Circuit, pi map[string]Signal, prm PowerParams) (*IncrementalAnalysis, error) {
	return core.NewIncremental(c, pi, prm)
}

// NewService builds the HTTP optimization service. The returned handler
// is ready to mount on any http.Server; every response is a pure
// function of its request, so identical requests are served identical
// bytes (usually from the response cache) and identical concurrent
// requests compute once.
func NewService(cfg ServeConfig) *Service { return serve.New(cfg) }

// NewSweepCircuitCache returns an empty shared circuit cache holding at
// most capacity circuits (<= 0: unbounded), for keeping benchmarks warm
// across RunSweep calls.
func NewSweepCircuitCache(capacity int) *SweepCircuitCache {
	return sweep.NewCircuitCache(capacity)
}

// OpenResultStore opens (creating if needed) a crash-safe result store
// in dir, recovering any torn journal tail a previous crash left. Close
// it when done; see docs/resume.md for the on-disk format and resume
// semantics.
func OpenResultStore(dir string, opt ResultStoreOptions) (*ResultStore, error) {
	return store.Open(dir, opt)
}

// ParseFaultPlan builds a deterministic fault-injection plan from a
// spec like "error=0.2,panic=0.1,delay=0.1,torn=0.05,maxdelay=2ms". An
// empty spec returns a nil plan (injection off). Testing only.
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	return faults.Parse(spec, seed)
}

// ScenarioInputs draws the paper's scenario A or B primary-input
// statistics for the circuit ("A"/"B", Fig. 6).
func ScenarioInputs(c *Circuit, scenario string, seed int64) map[string]Signal {
	opt := expt.DefaultOptions()
	opt.Seed = seed
	sc := expt.ScenarioA
	if scenario == "B" || scenario == "b" {
		sc = expt.ScenarioB
	}
	return expt.InputStats(c, sc, opt)
}
