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
	if p.Rn <= 0 || p.Rp <= 0 {
		return fmt.Errorf("delay: resistances must be positive, got Rn=%v Rp=%v", p.Rn, p.Rp)
	}
	return p.Cap.Validate()
}

// PinDelays returns, per gate input pin, the worst-case pin-to-output
// Elmore delay of the configuration: the maximum of the falling transition
// (through the pull-down stack) and the rising one (pull-up), assuming all
// other transistors on the triggered path are already conducting.
func PinDelays(g *gate.Gate, loadCap float64, prm Params) ([]float64, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if loadCap < 0 {
		return nil, fmt.Errorf("delay: negative load %v", loadCap)
	}
	gr, err := g.Graph()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(g.Inputs))
	for i, pin := range g.Inputs {
		fall, err := stackDelay(gr, pin, gate.NMOS, gate.Vss, prm, loadCap)
		if err != nil {
			return nil, err
		}
		rise, err := stackDelay(gr, pin, gate.PMOS, gate.Vdd, prm, loadCap)
		if err != nil {
			return nil, err
		}
		out[i] = math.Max(fall, rise)
	}
	return out, nil
}

// stackDelay computes the Elmore delay of the output transition triggered
// by the given pin through the network of the given transistor type:
// among all simple paths from Y to the rail that use the pin's transistor,
// it takes the one with the largest delay. Nodes between the pin's
// transistor and the rail are assumed pre-charged/discharged (their
// transistors were already on), so only the output node and the internal
// nodes above the switching transistor contribute capacitance, each times
// the resistance between that node and the rail along the path.
func stackDelay(gr *gate.Graph, pin string, tt gate.TransType, rail gate.NodeID, prm Params, loadCap float64) (float64, error) {
	r := prm.Rn
	if tt == gate.PMOS {
		r = prm.Rp
	}
	nodeCap := func(n gate.NodeID) float64 {
		c := prm.Cap.Cj * float64(gr.Degree(n))
		if n == gate.Y {
			c += loadCap
		}
		return c
	}
	best := -1.0
	visited := make([]bool, gr.NumNodes)
	// path is the list of nodes from Y downward; edges[i] connects
	// path[i] to path[i+1].
	var dfs func(cur gate.NodeID, nodes []gate.NodeID, usedPin bool)
	dfs = func(cur gate.NodeID, nodes []gate.NodeID, usedPin bool) {
		if cur == rail {
			if !usedPin {
				return
			}
			// Elmore sum along the recorded path: resistance from node k
			// to the rail is r × (#edges below k).
			total := 0.0
			k := len(nodes) // number of non-rail nodes on the path
			for i, n := range nodes {
				if n == gate.NodeID(-1) {
					// Marker: nodes below the switching transistor are
					// pre-discharged; stop accumulating.
					break
				}
				rBelow := float64(k-i) * r
				total += nodeCap(n) * rBelow
			}
			if total > best {
				best = total
			}
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
	if best < 0 {
		return 0, fmt.Errorf("delay: pin %s has no %v path from output to rail", pin, tt)
	}
	return best, nil
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
	d, err := PinDelays(cfg, loadCap, prm)
	if err != nil {
		return 0, err
	}
	return latest(arrivals, d), nil
}

// latest is the max over pins of (arrival + pin delay).
func latest(arrivals, pinDelays []float64) float64 {
	worst := math.Inf(-1)
	for i, t := range arrivals {
		if t+pinDelays[i] > worst {
			worst = t + pinDelays[i]
		}
	}
	return worst
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
		arr[g.Out] = latest(pinArr, d)
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
