package sim

import (
	"repro/internal/circuit"
	"repro/internal/stoch"
)

// GlitchReport quantifies the useless signal transitions of a run — the
// transitions a zero-delay (purely functional) circuit would not make.
// The paper's introduction motivates activity-aware optimization with
// exactly this phenomenon: "the power consumption of useless signal
// transitions … accounts for a large fraction of the overall dynamic
// power consumption".
type GlitchReport struct {
	Functional     map[string]int // per net: transitions a settled circuit needs
	Simulated      map[string]int // per net: transitions observed with real delays
	TotalGateTrans int            // simulated transitions on gate-output nets
	Useless        int            // simulated minus functional, gate outputs only
	Fraction       float64        // Useless / TotalGateTrans
}

// Glitches simulates the circuit twice under the same stimulus — with
// prm's gate delays and with zero delay — and attributes every
// gate-output transition beyond the functional count to glitching.
func Glitches(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm Params) (*GlitchReport, error) {
	res, err := Run(c, waves, horizon, prm)
	if err != nil {
		return nil, err
	}
	functional, err := FunctionalTransitions(c, waves, horizon)
	if err != nil {
		return nil, err
	}
	rep := &GlitchReport{
		Functional: functional,
		Simulated:  res.NetTransitions,
	}
	driver := c.Driver()
	for net, simCount := range res.NetTransitions {
		if driver[net] == nil {
			continue // primary input
		}
		rep.TotalGateTrans += simCount
		if extra := simCount - functional[net]; extra > 0 {
			rep.Useless += extra
		}
	}
	if rep.TotalGateTrans > 0 {
		rep.Fraction = float64(rep.Useless) / float64(rep.TotalGateTrans)
	}
	return rep, nil
}

// FunctionalTransitions counts, per net, the transitions an ideal
// zero-delay circuit makes under the stimulus: all input events sharing a
// timestamp apply together and the whole circuit settles instantly, so
// reconvergent skew cannot create pulses. This is the baseline that
// separates useful from useless activity. Nets that never switch are
// omitted.
func FunctionalTransitions(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64) (map[string]int, error) {
	prm := DefaultParams()
	prm.Mode = ZeroDelay
	res, err := Run(c, waves, horizon, prm)
	if err != nil {
		return nil, err
	}
	counts := res.NetTransitions
	for net, n := range counts {
		if n == 0 {
			delete(counts, net)
		}
	}
	return counts, nil
}
