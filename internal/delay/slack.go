package delay

import (
	"math"

	"repro/internal/circuit"
)

// SlackReport extends static timing analysis with required times and
// per-instance slack: how much each gate's output could be delayed
// without extending the circuit's critical path. Gates with zero slack
// form the critical network — the gates where the power-versus-delay
// reordering conflict actually bites; everywhere else the optimizer can
// pick the low-power configuration for free (the insight behind the
// DelayNeutral mode).
type SlackReport struct {
	Delay    float64            // critical-path delay
	Arrival  map[string]float64 // per net
	Required map[string]float64 // per net
	Slack    map[string]float64 // per gate-output net
	MinSlack float64
	Critical []string // instance names with ≈ zero slack, topological order
}

// Slacks computes arrival/required/slack for every net of the circuit.
// All primary outputs are required at the critical-path delay.
func Slacks(c *circuit.Circuit, prm Params) (*SlackReport, error) {
	order, delays, arr, err := forwardPass(c, prm)
	if err != nil {
		return nil, err
	}
	rep := &SlackReport{Arrival: arr, Required: map[string]float64{}, Slack: map[string]float64{}}
	for _, o := range c.Outputs {
		if arr[o] > rep.Delay {
			rep.Delay = arr[o]
		}
	}
	// Backward pass: required times. Every net starts at +inf, primary
	// outputs are clamped to the circuit delay, and each gate propagates
	// its output requirement to its pins through its pin delays.
	req := rep.Required
	for net := range arr {
		req[net] = math.Inf(1)
	}
	for _, o := range c.Outputs {
		if rep.Delay < req[o] {
			req[o] = rep.Delay
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		g := order[i]
		d := delays[i]
		for pi, p := range g.Pins {
			if t := req[g.Out] - d[pi]; t < req[p] {
				req[p] = t
			}
		}
	}
	rep.MinSlack = math.Inf(1)
	const eps = 1e-15
	for _, g := range order {
		s := req[g.Out] - arr[g.Out]
		rep.Slack[g.Out] = s
		if s < rep.MinSlack {
			rep.MinSlack = s
		}
		if s < eps {
			rep.Critical = append(rep.Critical, g.Name)
		}
	}
	return rep, nil
}
