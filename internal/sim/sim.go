// Package sim is the switch-level power simulator this reproduction uses
// in place of SLS [11]: it drives a mapped circuit with concrete input
// waveforms, resolves every gate at the transistor level (conducting-path
// connectivity with charge retention on undriven internal nodes), and
// meters energy as ½·C·Vdd² per node transition — internal nodes
// included, exactly the quantity the paper's model predicts. Column S of
// Table 3 is measured with this simulator.
//
// The circuit is compiled once into a flat word-op program over dense
// register indices and evaluated on packed Monte Carlo vectors, 64 lanes
// per machine word and up to 512 per register block. Two backends share
// that lowering — one front end (compile.go's lowering) validates the
// circuit, allocates the constant and input registers, lowers every
// gate's transistor graph to word ops, and meters each node with its
// ½·C·Vdd² energy:
//
//   - The levelized engine (compile.go, bitsim.go): zero delay. All input
//     events sharing a timestamp apply together, then the circuit settles
//     once, so reconvergent skew cannot create pulses.
//   - The timed engine (timed.go): unit or Elmore gate delays on a
//     discrete tick grid (Params.Tick), driven by a word-level timing
//     wheel with instant-atomic delta cycles. Reconvergent paths generate
//     the useless transitions (glitches) whose power the paper's
//     introduction highlights.
//
// The engines differ in meter order, and energies sum in meter order, so
// the order is part of each engine's results: after the primary inputs,
// the levelized program meters each gate's output before its internal
// nodes, and the timed program its internal nodes before its output (a
// fused best/worst program: best's, then worst's, then the output).
//
// CompileFor picks the backend for a delay mode, and RunVectors measures
// any Monte Carlo vector budget on it in register blocks of a chosen lane
// width, each drawn by a Drawer into a pooled stoch.WaveBuffer and packed
// in place (vectors.go); ReductionVectors is the best/worst pair form. A
// timed best/worst pair whose gates have the same quantized delays in
// both orderings (always under unit delay) compiles into one timed
// program, which runs the timing wheel and every gate output once and
// meters each ordering's internal nodes with its own energy table. Run,
// RunTrace and Glitches evaluate one waveform set as a single-lane run of
// the same programs. The semantic reference is the deliberately
// naive oracle in internal/gen: the lane-equivalence tests and the
// differential harness hold every lane of both engines to it in all
// three delay modes.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/stoch"
)

// DelayMode selects how gate output delays are modeled.
type DelayMode int

// Delay modes.
const (
	UnitDelay   DelayMode = iota // every gate delays its output by Unit
	ElmoreDelay                  // per-pin Elmore stack delay (delay pkg)
	ZeroDelay                    // outputs update instantaneously
)

// Engine names the simulation backend. The compiled bit-parallel engine
// is the only one; the type remains so a Params value keeps printing the
// engine it ran on.
type Engine int

// BitParallel is the compiled engine: the circuit is lowered to a flat
// word-op program and evaluated on packed vectors. Zero-delay runs the
// levelized program (compile.go); unit- and Elmore-delay run the timed
// word-op program on a timing wheel (timed.go).
const BitParallel Engine = 0

func (e Engine) String() string {
	if e == BitParallel {
		return "bitparallel"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Params configures a simulation.
type Params struct {
	Cap    core.Params  // capacitance and supply constants
	Mode   DelayMode    // gate delay model
	Unit   float64      // gate delay for UnitDelay mode, seconds
	Delay  delay.Params // electrical constants for ElmoreDelay mode
	Engine Engine       // simulation backend; BitParallel (the zero value) is the only one

	// Tick is the duration, in seconds, of the discrete time grid the
	// timed modes run on: input-event times snap to the nearest tick
	// (at most half a tick of skew per event) and every gate's output
	// delay is quantized to max(1, round(delay/Tick)) ticks, so the
	// per-gate delay error is at most Tick/2 (and strictly below Tick
	// when a sub-tick delay clamps to one tick). Zero selects the
	// automatic resolution: the unit delay itself in UnitDelay mode
	// (delays are then exact), or the fastest gate delay divided by
	// elmoreTickDiv in ElmoreDelay mode. The timed engine and the
	// reference oracle share this grid (TickPlan), which is what makes
	// them lane-for-lane comparable. Ignored in zero-delay mode.
	Tick float64
}

// elmoreTickDiv is the automatic Elmore tick resolution: the fastest gate
// delay spans this many ticks, bounding the per-stage relative delay error
// by 1/(2·elmoreTickDiv) on the fastest gate (smaller on slower ones).
const elmoreTickDiv = 4

// DefaultParams uses unit delays of 1 ns and the shared electrical
// constants.
func DefaultParams() Params {
	return Params{
		Cap:   core.DefaultParams(),
		Mode:  UnitDelay,
		Unit:  1e-9,
		Delay: delay.DefaultParams(),
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Cap.Validate(); err != nil {
		return err
	}
	switch p.Mode {
	case UnitDelay:
		if !(p.Unit > 0) || math.IsInf(p.Unit, 1) {
			return fmt.Errorf("sim: unit delay %v must be positive and finite", p.Unit)
		}
	case ElmoreDelay:
		if err := p.Delay.Validate(); err != nil {
			return err
		}
	case ZeroDelay:
	default:
		return fmt.Errorf("sim: unknown delay mode %d", int(p.Mode))
	}
	if p.Tick < 0 || math.IsNaN(p.Tick) || math.IsInf(p.Tick, 0) {
		return fmt.Errorf("sim: tick %v must be zero (auto) or a positive duration", p.Tick)
	}
	if p.Engine != BitParallel {
		return fmt.Errorf("sim: unknown engine %d (bitparallel is the only engine)", int(p.Engine))
	}
	return nil
}

// gateDelaySeconds returns every gate's output delay in seconds, in the
// given topological order: the unit delay in UnitDelay mode, the slowest
// pin's Elmore delay in ElmoreDelay mode (the triggering pin of a
// multi-input change is unknown, so the conservative bound is used). The
// timed engine and TickPlan derive their tick grid and per-gate tick
// delays from this one function, which keeps them numerically identical.
func gateDelaySeconds(order []*circuit.Instance, fanout map[string]int, prm Params) ([]float64, error) {
	delays := make([]float64, len(order))
	for gi, g := range order {
		switch prm.Mode {
		case UnitDelay:
			delays[gi] = prm.Unit
		case ElmoreDelay:
			pd, err := delay.PinDelays(g.Cell, prm.Cap.OutputLoad(fanout[g.Out]), prm.Delay)
			if err != nil {
				return nil, fmt.Errorf("sim: instance %s: %w", g.Name, err)
			}
			for _, d := range pd {
				if d > delays[gi] {
					delays[gi] = d
				}
			}
		default:
			return nil, fmt.Errorf("sim: %s delay has no gate delays", prm.Mode.name())
		}
	}
	return delays, nil
}

// maxGridDelayTicks bounds the largest quantized gate delay a tick grid
// may produce. Every timed run allocates a timing wheel of maxDelay+1
// slots, so an unbounded ratio of gate delay to tick lets one request
// allocate gigabytes (a 1 ns unit delay on a 1e-17 s tick is 1e8 slots),
// and past 2^63 the float-to-int conversion of quantizeDelay overflows.
// Automatic ticks stay far below the bound: at most 38 ticks on every
// embedded benchmark.
const maxGridDelayTicks = 1 << 16

// resolveTick picks the tick duration for a timed run: the explicit
// Params.Tick when set, the unit delay in UnitDelay mode (gate delays are
// then exactly one tick), or the fastest gate delay / elmoreTickDiv in
// ElmoreDelay mode. It rejects a tick on which the slowest gate delay
// quantizes to more than maxGridDelayTicks ticks. Several delay lists
// (the circuits of a best/worst pair) resolve to one grid that serves
// them all, as their concatenation would.
func resolveTick(prm Params, delays ...[]float64) (float64, error) {
	tick := prm.Tick
	switch {
	case tick > 0:
	case prm.Mode == UnitDelay:
		tick = prm.Unit
	default:
		min := math.Inf(1)
		for _, ds := range delays {
			for _, d := range ds {
				if d < min {
					min = d
				}
			}
		}
		if math.IsInf(min, 1) || min <= 0 {
			return 0, fmt.Errorf("sim: cannot derive a tick from gate delays (min %v); set Params.Tick", min)
		}
		tick = min / elmoreTickDiv
	}
	for _, ds := range delays {
		for _, d := range ds {
			if q := math.Round(d / tick); !(q <= maxGridDelayTicks) {
				return 0, fmt.Errorf("sim: tick %g s quantizes a %g s gate delay to %g ticks; the timed grid allows at most %d",
					tick, d, q, maxGridDelayTicks)
			}
		}
	}
	return tick, nil
}

// quantizeDelay converts a gate delay to ticks: nearest tick, at least
// one. The quantization error is at most tick/2, except for sub-half-tick
// delays clamped to one tick, where it stays strictly below one tick.
func quantizeDelay(d, tick float64) int64 {
	t := int64(math.Round(d / tick))
	if t < 1 {
		t = 1
	}
	return t
}

// TickPlan resolves the discrete time grid a timed run of c would use:
// the tick duration in seconds and, parallel to the returned topological
// gate order, every gate's quantized output delay in ticks. The timed
// engine derives its grid from exactly this computation, so external
// reference simulators (internal/gen's naive oracle) can share the axis
// and be compared tick for tick. Zero-delay mode has no grid.
func TickPlan(c *circuit.Circuit, prm Params) (tick float64, delayTicks []int64, order []*circuit.Instance, err error) {
	if err := prm.Validate(); err != nil {
		return 0, nil, nil, err
	}
	if prm.Mode == ZeroDelay {
		return 0, nil, nil, fmt.Errorf("sim: zero-delay mode has no tick grid")
	}
	order, err = c.TopoOrder()
	if err != nil {
		return 0, nil, nil, err
	}
	delays, err := gateDelaySeconds(order, c.Fanout(), prm)
	if err != nil {
		return 0, nil, nil, err
	}
	if tick, err = resolveTick(prm, delays); err != nil {
		return 0, nil, nil, err
	}
	delayTicks = make([]int64, len(order))
	for i, d := range delays {
		delayTicks[i] = quantizeDelay(d, tick)
	}
	return tick, delayTicks, order, nil
}

// ParseDelayMode resolves a delay-mode name — "zero", "unit" or
// "elmore" — the inverse of the name a DelayMode prints under.
func ParseDelayMode(s string) (DelayMode, error) {
	for _, m := range []DelayMode{ZeroDelay, UnitDelay, ElmoreDelay} {
		if s == m.name() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown delay mode %q (want zero, unit or elmore)", s)
}

func (m DelayMode) name() string {
	switch m {
	case UnitDelay:
		return "unit"
	case ElmoreDelay:
		return "elmore"
	case ZeroDelay:
		return "zero"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Result summarizes a simulation run.
type Result struct {
	Horizon        float64            // simulated time, seconds
	Energy         float64            // joules
	Power          float64            // watts (Energy / Horizon)
	PerGate        map[string]float64 // instance → joules
	NetTransitions map[string]int     // net → observed transitions
	InternalFlips  int                // internal-node transitions
	OutputFlips    int                // gate-output net transitions
	Events         int                // evaluated instants (settling steps or active ticks)
}

// Density returns the measured transition density of a net.
func (r *Result) Density(net string) float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.NetTransitions[net]) / r.Horizon
}

// Accumulate folds another run's counts and energies into r (used to
// aggregate Monte Carlo batches). Power is not updated: after the last
// batch, divide Energy by the total simulated time across all vectors.
func (r *Result) Accumulate(o *Result) {
	r.Energy += o.Energy
	r.InternalFlips += o.InternalFlips
	r.OutputFlips += o.OutputFlips
	r.Events += o.Events
	if r.NetTransitions == nil {
		r.NetTransitions = map[string]int{}
	}
	for net, n := range o.NetTransitions {
		r.NetTransitions[net] += n
	}
	if r.PerGate == nil {
		r.PerGate = map[string]float64{}
	}
	for inst, e := range o.PerGate {
		r.PerGate[inst] += e
	}
}

// Run simulates the circuit over [0, horizon] with the given input
// waveforms (one per primary input): the waveforms are bit-packed into a
// single lane and evaluated by the compiled engine — the levelized
// program in zero-delay mode, the timed word-op program otherwise.
func Run(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm Params) (*Result, error) {
	br, err := runSingle(c, waves, horizon, prm, nil)
	if err != nil {
		return nil, err
	}
	return &br.Result, nil
}

// runSingle packs one waveform set into a single lane and runs it on the
// compiled engine for prm's delay mode. A non-nil lane meter routes the
// run through the engines' per-lane slow path (RunTrace's recorder). The
// timed stimulus is packed without cluster alignment, so its ticks are
// the quantized event times.
func runSingle(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm Params, lm *laneMeter) (*BitResult, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("sim: horizon %v must be positive and finite", horizon)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	lanes := []map[string]*stoch.Waveform{waves}
	if prm.Mode == ZeroDelay {
		p, err := Compile(c, prm)
		if err != nil {
			return nil, err
		}
		stim, err := stoch.PackWaveforms(c.Inputs, lanes, horizon)
		if err != nil {
			return nil, err
		}
		return p.runMetered(stim, lm)
	}
	tp, err := CompileTimed(c, prm)
	if err != nil {
		return nil, err
	}
	stim, err := stoch.PackTimedWaveforms(c.Inputs, lanes, horizon, tp.tick, 0)
	if err != nil {
		return nil, err
	}
	return tp.runMetered(stim, lm)
}

// GenerateWaveforms draws per-input waveforms realizing the given
// statistics with exponentially distributed inter-transition times
// (scenario A of the paper). The rng drives all inputs, so a fixed seed
// reproduces the exact stimulus — pass the same waveforms to the best and
// worst circuits for a fair comparison.
func GenerateWaveforms(inputs []string, stats map[string]stoch.Signal, horizon float64, rng *rand.Rand) (map[string]*stoch.Waveform, error) {
	return drawWaveforms(inputs, ExponentialDrawer(inputs, stats, horizon, rng))
}

// GenerateClockedWaveforms draws per-input waveforms sampled at a fixed
// clock (scenario B: latched inputs, statistics in transitions/cycle).
func GenerateClockedWaveforms(inputs []string, stats map[string]stoch.Signal, cycles int, period float64, rng *rand.Rand) (map[string]*stoch.Waveform, error) {
	return drawWaveforms(inputs, ClockedDrawer(inputs, stats, cycles, period, rng))
}

// drawWaveforms draws one vector and returns it by input name. A
// waveform without events has nil Events, as Signal.Exponential and
// Signal.Clocked return it.
func drawWaveforms(inputs []string, draw Drawer) (map[string]*stoch.Waveform, error) {
	var b stoch.WaveBuffer
	b.Reset(len(inputs))
	if err := draw(&b); err != nil {
		return nil, err
	}
	waves := make(map[string]*stoch.Waveform, len(inputs))
	for i, in := range inputs {
		w := &stoch.Waveform{}
		w.Initial, w.Events = b.Wave(0, i)
		if len(w.Events) == 0 {
			w.Events = nil
		}
		waves[in] = w
	}
	return waves, nil
}

// GenerateLaneWaveforms draws `lanes` independent scenario-A waveform
// sets (exponential inter-transition times) from one rng — the raw
// material for both PackWaveforms (zero delay) and PackTimedWaveforms.
func GenerateLaneWaveforms(inputs []string, stats map[string]stoch.Signal, horizon float64, lanes int, rng *rand.Rand) ([]map[string]*stoch.Waveform, error) {
	if lanes < 1 || lanes > stoch.MaxPackLanes {
		return nil, fmt.Errorf("sim: %d lanes out of [1,%d]", lanes, stoch.MaxPackLanes)
	}
	laneWaves := make([]map[string]*stoch.Waveform, lanes)
	for l := range laneWaves {
		w, err := GenerateWaveforms(inputs, stats, horizon, rng)
		if err != nil {
			return nil, err
		}
		laneWaves[l] = w
	}
	return laneWaves, nil
}
