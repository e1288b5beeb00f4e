package core

import (
	"repro/internal/circuit"
	"repro/internal/stoch"
)

// CircuitAnalysis is the model's evaluation of a whole circuit.
type CircuitAnalysis struct {
	Power         float64                 // watts, sum of gate powers
	InternalPower float64                 // watts at internal gate nodes
	OutputPower   float64                 // watts at gate output nodes
	PerGate       map[string]float64      // instance name → watts
	NetStats      map[string]stoch.Signal // every net's (P, D)
}

// AnalyzeCircuit propagates input statistics through the circuit in
// topological order and evaluates the extended power model on every gate
// — the estimation half of the paper's Figure 3 flow. pi maps every
// primary input net to its statistics.
func AnalyzeCircuit(c *circuit.Circuit, pi map[string]stoch.Signal, prm Params) (*CircuitAnalysis, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	fanout := c.Fanout()
	res := &CircuitAnalysis{PerGate: make(map[string]float64, len(c.Gates))}
	stats, err := c.Propagate(pi, func(g *circuit.Instance, in []stoch.Signal) (stoch.Signal, error) {
		a, err := AnalyzeGate(g.Cell, in, prm.OutputLoad(fanout[g.Out]), prm)
		if err != nil {
			return stoch.Signal{}, err
		}
		res.PerGate[g.Name] = a.Power
		res.Power += a.Power
		res.InternalPower += a.InternalPower
		res.OutputPower += a.OutputPower
		return a.Out, nil
	})
	if err != nil {
		return nil, err
	}
	res.NetStats = stats
	return res, nil
}

// NetStatistics runs only the statistics propagation (OBTAIN_PROBABILITIES
// of Figure 3) without power evaluation.
func NetStatistics(c *circuit.Circuit, pi map[string]stoch.Signal) (map[string]stoch.Signal, error) {
	return c.Propagate(pi, func(g *circuit.Instance, in []stoch.Signal) (stoch.Signal, error) {
		return OutputStats(g.Cell, in)
	})
}
