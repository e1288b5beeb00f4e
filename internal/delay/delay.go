// Package delay estimates gate and circuit delays with an Elmore RC model
// of the transistor stacks. The model captures the position effect that
// Table 3's column D reports: when the switching (last-arriving) input's
// transistor sits close to the output terminal, the internal nodes below
// it are already discharged and contribute no RC product, so the gate is
// fast; the same transistor placed near the rail forces every internal
// node above it to discharge through the stack, so the gate is slow. This
// is the rule of thumb ("critical transistor near the output") that
// conflicts with the low-power placement, as discussed in Section 5 of
// the paper and in Shen et al. [9].
package delay

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
)

// Params are the electrical constants of the RC model.
type Params struct {
	Rn  float64     // on-resistance of an NMOS transistor, ohms
	Rp  float64     // on-resistance of a PMOS transistor, ohms
	Cap core.Params // capacitance constants shared with the power model
}

// DefaultParams matches core.DefaultParams with era-typical resistances
// (PMOS twice as resistive as NMOS at equal width).
func DefaultParams() Params {
	return Params{Rn: 10e3, Rp: 20e3, Cap: core.DefaultParams()}
}

// Validate reports whether the parameters are physical.
func (p Params) Validate() error {
	if !(p.Rn > 0) || !(p.Rp > 0) || math.IsInf(p.Rn, 1) || math.IsInf(p.Rp, 1) {
		return fmt.Errorf("delay: resistances must be positive and finite, got Rn=%v Rp=%v", p.Rn, p.Rp)
	}
	return p.Cap.Validate()
}

// PinDelays returns, per gate input pin, the worst-case pin-to-output
// Elmore delay of the configuration: the maximum of the falling transition
// (through the pull-down stack) and the rising one (pull-up), assuming all
// other transistors on the triggered path are already conducting.
func PinDelays(g *gate.Gate, loadCap float64, prm Params) ([]float64, error) {
	t, err := checkedPaths(g, loadCap, prm)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(g.Inputs))
	for i := range out {
		out[i] = t.pinDelay(i, loadCap, prm)
	}
	return out, nil
}

// checkedPaths validates the evaluation inputs and returns the
// configuration's path template.
func checkedPaths(g *gate.Gate, loadCap float64, prm Params) (*pathTemplate, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if !(loadCap >= 0) || math.IsInf(loadCap, 1) {
		return nil, fmt.Errorf("delay: load %v is not finite and non-negative", loadCap)
	}
	return pathsOf(g)
}

// pathTerm is one node's share of a rail path's Elmore sum: its
// capacitance is Cj per transistor terminal (deg), plus the load on the
// output node, and it discharges through the `below` edges between it and
// the rail.
type pathTerm struct {
	deg   int
	isY   bool
	below int
}

// pinPaths holds one pin's paths from Y to the rail through its own
// transistor, in DFS order: fall through the NMOS network to Vss, rise
// through the PMOS network to Vdd. Each path lists the terms of the nodes
// above the switching transistor; the nodes below it are pre-charged or
// discharged (their transistors were already on) and contribute nothing.
type pinPaths struct {
	fall, rise [][]pathTerm
}

// pathTemplate is the statistics- and load-independent part of a
// configuration's delay model: per pin (in Inputs order), its rail paths.
type pathTemplate struct {
	pins []pinPaths
}

// pathTemplates memoizes each configuration's path template. Package gate
// interns configurations (one *gate.Gate per configuration), so the
// pointer is the identity, as in core's power-model templates.
var pathTemplates sync.Map // *gate.Gate → *pathTemplate

// pathsOf returns the path template of the gate's configuration, building
// it on first use.
func pathsOf(g *gate.Gate) (*pathTemplate, error) {
	if t, ok := pathTemplates.Load(g); ok {
		return t.(*pathTemplate), nil
	}
	t, err := buildPaths(g)
	if err != nil {
		return nil, err
	}
	prior, _ := pathTemplates.LoadOrStore(g, t)
	return prior.(*pathTemplate), nil
}

func buildPaths(g *gate.Gate) (*pathTemplate, error) {
	gr, err := g.Graph()
	if err != nil {
		return nil, err
	}
	t := &pathTemplate{pins: make([]pinPaths, len(g.Inputs))}
	for i, pin := range g.Inputs {
		if t.pins[i].fall, err = railPaths(gr, pin, gate.NMOS, gate.Vss); err != nil {
			return nil, err
		}
		if t.pins[i].rise, err = railPaths(gr, pin, gate.PMOS, gate.Vdd); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// railPaths enumerates, in DFS order, every simple path from Y to the
// rail through the network of the given transistor type that uses the
// pin's transistor, as the terms of the nodes above that transistor.
func railPaths(gr *gate.Graph, pin string, tt gate.TransType, rail gate.NodeID) ([][]pathTerm, error) {
	var paths [][]pathTerm
	visited := make([]bool, gr.NumNodes)
	// nodes is the list of nodes from Y downward, with -1 marking the
	// nodes below the switching transistor.
	var dfs func(cur gate.NodeID, nodes []gate.NodeID, usedPin bool)
	dfs = func(cur gate.NodeID, nodes []gate.NodeID, usedPin bool) {
		if cur == rail {
			if !usedPin {
				return
			}
			// The resistance from node i to the rail is r × (#edges
			// below i), with k non-rail nodes on the path.
			var path []pathTerm
			k := len(nodes)
			for i, n := range nodes {
				if n == gate.NodeID(-1) {
					break
				}
				path = append(path, pathTerm{deg: gr.Degree(n), isY: n == gate.Y, below: k - i})
			}
			paths = append(paths, path)
			return
		}
		visited[cur] = true
		for _, e := range gr.Edges {
			if e.Type != tt {
				continue
			}
			var next gate.NodeID
			switch {
			case e.A == cur:
				next = e.B
			case e.B == cur:
				next = e.A
			default:
				continue
			}
			if next != rail && (next == gate.Vdd || next == gate.Vss) {
				continue
			}
			if next != rail && visited[next] {
				continue
			}
			isPin := e.Input == pin
			childNodes := nodes
			if next != rail {
				marker := next
				if usedPin || isPin {
					marker = gate.NodeID(-1)
				}
				childNodes = append(append([]gate.NodeID(nil), nodes...), marker)
			}
			dfs(next, childNodes, usedPin || isPin)
		}
		visited[cur] = false
	}
	dfs(gate.Y, []gate.NodeID{gate.Y}, false)
	if len(paths) == 0 {
		return nil, fmt.Errorf("delay: pin %s has no %v path from output to rail", pin, tt)
	}
	return paths, nil
}

// pinDelay is pin i's delay: the slower of its fall and rise.
func (t *pathTemplate) pinDelay(i int, loadCap float64, prm Params) float64 {
	p := &t.pins[i]
	return math.Max(stackDelay(p.fall, prm.Rn, loadCap, prm), stackDelay(p.rise, prm.Rp, loadCap, prm))
}

// stackDelay is the Elmore delay of the slowest of the paths through a
// network of on-resistance r: each path sums, over the nodes above the
// switching transistor, the node's capacitance times the resistance
// between it and the rail.
func stackDelay(paths [][]pathTerm, r, loadCap float64, prm Params) float64 {
	best := -1.0
	for _, path := range paths {
		total := 0.0
		for _, term := range path {
			c := prm.Cap.Cj * float64(term.deg)
			if term.isY {
				c += loadCap
			}
			total += c * (float64(term.below) * r)
		}
		if total > best {
			best = total
		}
	}
	return best
}

// Result is a static timing analysis of a circuit.
type Result struct {
	Delay    float64            // critical-path delay, seconds
	Arrival  map[string]float64 // per-net arrival time
	Critical []string           // instance names on one critical path, input to output
}

// Arrival returns the output arrival time of configuration cfg given its
// per-pin input arrivals: the latest over pins of (pin arrival +
// pin-to-output delay) — the rule the forward pass behind CircuitDelay
// and Slacks applies at every gate.
func Arrival(cfg *gate.Gate, arrivals []float64, loadCap float64, prm Params) (float64, error) {
	if len(arrivals) != len(cfg.Inputs) {
		return 0, fmt.Errorf("delay: gate %s has %d inputs, got %d arrivals", cfg.Name, len(cfg.Inputs), len(arrivals))
	}
	if err := checkArrivals(arrivals); err != nil {
		return 0, err
	}
	t, err := checkedPaths(cfg, loadCap, prm)
	if err != nil {
		return 0, err
	}
	worst := math.Inf(-1)
	for i, a := range arrivals {
		if d := a + t.pinDelay(i, loadCap, prm); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// checkArrivals rejects a non-finite pin arrival: NaN fails every
// comparison, so the latest-arrival max would silently drop it.
func checkArrivals(arrivals []float64) error {
	for i, a := range arrivals {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("delay: arrival %v at pin %d is not finite", a, i)
		}
	}
	return nil
}

// latest is the max over pins of (arrival + pin delay): Arrival's rule
// over pin delays the forward pass keeps for its critical-path trace.
func latest(arrivals, pinDelays []float64) (float64, error) {
	if err := checkArrivals(arrivals); err != nil {
		return 0, err
	}
	worst := math.Inf(-1)
	for i, t := range arrivals {
		if t+pinDelays[i] > worst {
			worst = t + pinDelays[i]
		}
	}
	return worst, nil
}

// forwardPass propagates arrivals through the circuit in topological
// order: primary inputs arrive at t=0 and every gate output at the
// latest of its pins. It returns the order, each position's pin delays
// and the per-net arrivals.
func forwardPass(c *circuit.Circuit, prm Params) ([]*circuit.Instance, [][]float64, map[string]float64, error) {
	if err := prm.Validate(); err != nil {
		return nil, nil, nil, err
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, nil, nil, err
	}
	fanout := c.Fanout()
	arr := make(map[string]float64, len(c.Inputs)+len(order))
	for _, in := range c.Inputs {
		arr[in] = 0
	}
	delays := make([][]float64, len(order))
	var pinArr []float64
	for k, g := range order {
		d, err := PinDelays(g.Cell, prm.Cap.OutputLoad(fanout[g.Out]), prm)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("delay: instance %s: %w", g.Name, err)
		}
		pinArr = pinArr[:0]
		for _, p := range g.Pins {
			t, ok := arr[p]
			if !ok {
				return nil, nil, nil, fmt.Errorf("delay: instance %s reads unknown net %q", g.Name, p)
			}
			pinArr = append(pinArr, t)
		}
		delays[k] = d
		if arr[g.Out], err = latest(pinArr, d); err != nil {
			return nil, nil, nil, fmt.Errorf("delay: instance %s: %w", g.Name, err)
		}
	}
	return order, delays, arr, nil
}

// CircuitDelay runs longest-path static timing analysis: primary inputs
// arrive at t=0, every gate output arrives at max over pins of
// (pin arrival + pin-to-output delay), the circuit delay is the latest
// primary output.
func CircuitDelay(c *circuit.Circuit, prm Params) (*Result, error) {
	order, delays, arr, err := forwardPass(c, prm)
	if err != nil {
		return nil, err
	}
	res := &Result{Arrival: arr}
	worstNet := ""
	for _, o := range c.Outputs {
		if arr[o] >= res.Delay {
			res.Delay = arr[o]
			worstNet = o
		}
	}
	// Trace one critical path backwards through the stored pin delays:
	// each net's driver sits earlier in the order than its reader.
	net := worstNet
	for k := len(order) - 1; k >= 0 && net != ""; k-- {
		g := order[k]
		if g.Out != net {
			continue
		}
		res.Critical = append([]string{g.Name}, res.Critical...)
		// Follow the pin that set the arrival.
		net = ""
		for i, p := range g.Pins {
			if math.Abs(arr[p]+delays[k][i]-arr[g.Out]) < 1e-18 {
				net = p
				break
			}
		}
	}
	return res, nil
}

// DelayOptimal returns the configuration of g that minimizes the gate's
// output arrival time given per-pin input arrivals — the classic
// "critical transistor near the output" optimization the paper contrasts
// with its low-power objective — together with that arrival.
func DelayOptimal(g *gate.Gate, arrivals []float64, loadCap float64, prm Params) (*gate.Gate, float64, error) {
	var bestCfg *gate.Gate
	bestArr := math.Inf(1)
	for _, cfg := range g.AllConfigs() {
		a, err := Arrival(cfg, arrivals, loadCap, prm)
		if err != nil {
			return nil, 0, err
		}
		if a < bestArr {
			bestArr = a
			bestCfg = cfg
		}
	}
	return bestCfg, bestArr, nil
}
