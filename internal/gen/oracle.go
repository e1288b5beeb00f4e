// The naive reference simulator. Everything here is written for obvious
// correctness, not speed: no event queue, no dirty tracking, no
// compilation, no incrementality. Per active instant the oracle sweeps
// EVERY gate of the circuit unconditionally (gate evaluation is
// idempotent, so untouched gates are provable no-ops), logic values come
// from straight truth-table evaluation iterated to fixpoint, and
// transistor-level node states come from the allocating Graph.NodeStateAt
// conducting-path flood rather than the compiled H/G word ops the
// engines use. The only thing the oracle shares with the engines is the
// published simulation *semantics* (the tick grid from sim.TickPlan,
// instant-atomic sweeps, sample-at-fire pulse filtering) — the mechanisms
// under test (queues, agendas, word ops, timing wheels, bit packing) are
// all reimplemented away.
package gen

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/sim"
	"repro/internal/stoch"
)

// OracleResult mirrors the measurable part of sim.Result: every quantity
// the engines must agree on. Engine-defined counters (sim.Result.Events)
// are deliberately absent.
type OracleResult struct {
	Energy         float64
	InternalFlips  int
	OutputFlips    int
	NetTransitions map[string]int
	PerGate        map[string]float64
}

// OracleEval computes every net's steady-state value for one input
// assignment by iterating full truth-table passes over all gates (in
// declaration order, not topological order) until a fixpoint — the
// slowest, most obviously correct functional evaluation available.
func OracleEval(c *circuit.Circuit, inputs map[string]bool) (map[string]bool, error) {
	val := make(map[string]bool, len(c.Inputs)+len(c.Gates))
	for _, in := range c.Inputs {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("gen: oracle: missing value for input %q", in)
		}
		val[in] = v
	}
	fns := make([]func(uint) bool, len(c.Gates))
	for i, g := range c.Gates {
		f, err := g.Cell.Func()
		if err != nil {
			return nil, err
		}
		fns[i] = f.Eval
	}
	// An acyclic circuit settles within depth ≤ len(Gates) passes; one
	// extra pass proves stability.
	for pass := 0; pass <= len(c.Gates); pass++ {
		changed := false
		for i, g := range c.Gates {
			var m uint
			for pi, p := range g.Pins {
				if val[p] {
					m |= 1 << pi
				}
			}
			y := fns[i](m)
			if old, ok := val[g.Out]; !ok || old != y {
				val[g.Out] = y
				changed = true
			}
		}
		if !changed {
			return val, nil
		}
	}
	return nil, fmt.Errorf("gen: oracle: circuit %s did not settle (cycle?)", c.Name)
}

// oracleGate is the oracle's per-gate state.
type oracleGate struct {
	inst     *circuit.Instance
	graph    *gate.Graph
	nodes    []bool         // settled node state at last evaluation
	lastM    uint           // input minterm at last evaluation
	lastY    bool           // computed output at last evaluation
	caps     []float64      // per-node capacitance (internal nodes)
	outCap   float64        // output-node capacitance incl. fanout load
	delay    int64          // output delay in ticks (timed modes)
	fires    map[int64]bool // pending output-update ticks
	energy   float64
	internal []gate.NodeID
}

type oracle struct {
	c       *circuit.Circuit
	order   []*circuit.Instance
	gates   []*oracleGate // in topological order
	values  map[string]bool
	halfCV2 float64
	res     *OracleResult
}

func newOracle(c *circuit.Circuit, order []*circuit.Instance, prm sim.Params) (*oracle, error) {
	o := &oracle{
		c:       c,
		order:   order,
		values:  map[string]bool{},
		halfCV2: 0.5 * prm.Cap.Vdd * prm.Cap.Vdd,
		res:     &OracleResult{NetTransitions: map[string]int{}, PerGate: map[string]float64{}},
	}
	fanout := c.Fanout()
	for _, g := range order {
		gr, err := g.Cell.Graph()
		if err != nil {
			return nil, fmt.Errorf("gen: oracle: instance %s: %w", g.Name, err)
		}
		og := &oracleGate{
			inst:     g,
			graph:    gr,
			internal: gr.InternalNodes(),
			caps:     make([]float64, gr.NumNodes),
			outCap:   prm.Cap.Cj*float64(gr.Degree(gate.Y)) + prm.Cap.OutputLoad(fanout[g.Out]),
			fires:    map[int64]bool{},
		}
		for _, nk := range og.internal {
			og.caps[nk] = prm.Cap.Cj * float64(gr.Degree(nk))
		}
		o.gates = append(o.gates, og)
	}
	return o, nil
}

// settle establishes the unmetered t=0 steady state from initial input
// values.
func (o *oracle) settle(init map[string]bool) {
	for net, v := range init {
		o.values[net] = v
	}
	for _, og := range o.gates {
		m := o.minterm(og)
		og.nodes = og.graph.NodeStateAt(m, nil)
		og.lastM = m
		og.lastY = og.nodes[gate.Y]
		o.values[og.inst.Out] = og.lastY
	}
}

func (o *oracle) minterm(og *oracleGate) uint {
	var m uint
	for i, p := range og.inst.Pins {
		if o.values[p] {
			m |= 1 << i
		}
	}
	return m
}

// applyInput applies one primary-input edge, metering the net transition.
func (o *oracle) applyInput(net string, val bool) {
	if o.values[net] == val {
		return
	}
	o.values[net] = val
	o.res.NetTransitions[net]++
}

// sweepZero settles one zero-delay instant: every gate, in topological
// order, is re-evaluated from scratch against the current net values and
// its state diffs are metered. Idempotence of NodeStateAt makes untouched
// gates exact no-ops, so this is equivalent to the engines' dirty-cone
// settling.
func (o *oracle) sweepZero() {
	for _, og := range o.gates {
		m := o.minterm(og)
		next := og.graph.NodeStateAt(m, og.nodes)
		o.meterInternal(og, next)
		og.nodes = next
		og.lastM = m
		og.lastY = next[gate.Y]
		if y := og.lastY; y != o.values[og.inst.Out] {
			o.values[og.inst.Out] = y
			o.res.NetTransitions[og.inst.Out]++
			o.res.OutputFlips++
			og.energy += o.halfCV2 * og.outCap
		}
	}
}

func (o *oracle) meterInternal(og *oracleGate, next []bool) {
	for _, nk := range og.internal {
		if next[nk] != og.nodes[nk] {
			o.res.InternalFlips++
			og.energy += o.halfCV2 * og.caps[nk]
		}
	}
}

// sweepTimed settles one timed instant at tick t with the published
// instant-atomic semantics: per gate (topological order), re-evaluate
// first — metering internal flips and scheduling an output update
// delay ticks later when the computed output changed or disagrees with
// the net — then apply a pending output update by sampling the current
// computed output (collapsed pulses change nothing: inertial filtering).
// The schedule guard (m != lastM) reproduces the engines' dirty tracking
// without tracking dirtiness: a gate is dirty at an instant exactly when
// some fan-in net transitioned, i.e. when its minterm differs from the
// one at its previous evaluation.
func (o *oracle) sweepTimed(t int64) (maxFire int64) {
	maxFire = -1
	for _, og := range o.gates {
		m := o.minterm(og)
		if m != og.lastM {
			next := og.graph.NodeStateAt(m, og.nodes)
			o.meterInternal(og, next)
			og.nodes = next
			og.lastM = m
			y := next[gate.Y]
			prevY := og.lastY
			og.lastY = y
			if y != prevY || y != o.values[og.inst.Out] {
				ft := t + og.delay
				og.fires[ft] = true
				if ft > maxFire {
					maxFire = ft
				}
			}
		}
		if og.fires[t] {
			delete(og.fires, t)
			if y := og.lastY; y != o.values[og.inst.Out] {
				o.values[og.inst.Out] = y
				o.res.NetTransitions[og.inst.Out]++
				o.res.OutputFlips++
				og.energy += o.halfCV2 * og.outCap
			}
		}
	}
	return maxFire
}

func (o *oracle) finish() *OracleResult {
	for _, og := range o.gates {
		o.res.PerGate[og.inst.Name] = og.energy
		o.res.Energy += og.energy
	}
	return o.res
}

// OracleRun simulates the circuit over [0, horizon] under the given input
// waveforms with the naive reference semantics, in any delay mode. It
// produces exactly the measurement the engines must reproduce.
func OracleRun(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm sim.Params) (*OracleResult, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("gen: oracle: horizon %v must be positive", horizon)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, in := range c.Inputs {
		if waves[in] == nil {
			return nil, fmt.Errorf("gen: oracle: no waveform for input %q", in)
		}
	}
	if prm.Mode == sim.ZeroDelay {
		return oracleZero(c, waves, horizon, prm)
	}
	return oracleTimed(c, waves, horizon, prm)
}

// oracleZero replays the zero-delay semantics: group input events by
// exact timestamp, apply each group, settle the whole circuit.
func oracleZero(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm sim.Params) (*OracleResult, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c, order, prm)
	if err != nil {
		return nil, err
	}
	init := make(map[string]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		init[in] = waves[in].Initial
	}
	o.settle(init)

	type edge struct {
		time float64
		net  string
		val  bool
	}
	var edges []edge
	for _, in := range c.Inputs {
		for _, e := range waves[in].Events {
			if e.Time > horizon {
				break
			}
			edges = append(edges, edge{e.Time, in, e.Value})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].time < edges[j].time })
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].time == edges[i].time {
			o.applyInput(edges[j].net, edges[j].val)
			j++
		}
		o.sweepZero()
		i = j
	}
	return o.finish(), nil
}

// oracleTimed replays the timed engine's tick-grid semantics: input
// waveforms quantize onto the grid from sim.TickPlan, then every instant
// with activity (an input edge or a pending output update) gets one full
// instant-atomic sweep. Updates drain past the horizon, exactly like the
// engine.
func oracleTimed(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm sim.Params) (*OracleResult, error) {
	tick, delayTicks, order, err := sim.TickPlan(c, prm)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(c, order, prm)
	if err != nil {
		return nil, err
	}
	for i, og := range o.gates {
		og.delay = delayTicks[i]
	}
	init := make(map[string]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		init[in] = waves[in].Initial
	}
	o.settle(init)

	horizonTicks := stoch.TicksIn(horizon, tick)
	type edge struct {
		net string
		ev  stoch.TickEvent
	}
	inputAt := map[int64][]edge{}
	active := map[int64]bool{}
	for _, in := range c.Inputs {
		for _, te := range stoch.QuantizeWaveform(waves[in], tick, horizonTicks) {
			inputAt[te.Tick] = append(inputAt[te.Tick], edge{in, te})
			active[te.Tick] = true
		}
	}
	for len(active) > 0 {
		// Naive min scan — no heap.
		var t int64
		first := true
		for tk := range active {
			if first || tk < t {
				t = tk
				first = false
			}
		}
		delete(active, t)
		for _, e := range inputAt[t] {
			o.applyInput(e.net, e.ev.Value)
		}
		o.sweepTimed(t)
		// Every pending fire is an active instant; re-adding already
		// processed ones is impossible (fires are strictly in the future).
		for _, og := range o.gates {
			for ft := range og.fires {
				active[ft] = true
			}
		}
	}
	return o.finish(), nil
}
