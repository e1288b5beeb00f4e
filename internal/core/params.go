// Package core implements the paper's primary contribution: the
// power-consumption model of a static CMOS gate that accounts for the
// switching activity and equilibrium probabilities of the gate's internal
// nodes (Section 3.3), and the circuit-level power estimation built on it.
//
// The model, restated (derived in the paper's Section 3.3; ARCHITECTURE.md,
// "The power model", maps it onto this package):
//
//	P(nk)    = P(H_nk) / (P(H_nk) + P(G_nk))                    (steady state)
//	T_nk|xi  = D(xi)·[P(¬nk)·P(∂H_nk/∂xi) + P(nk)·P(∂G_nk/∂xi)]
//	W_nk     = Σ_i ½·C_nk·Vdd²·T_nk|xi
//	P_gate   = Σ_{nk ∈ internals ∪ {y}} W_nk
//
// At the output node G_y = ¬H_y, so T_y collapses to Najm's transition
// density D(y) = Σ_i P(∂y/∂xi)·D(xi), which is also what the model
// propagates to the gate's fanout.
package core

import (
	"fmt"
	"math"
)

// Params holds the electrical constants of the capacitance model. The
// paper extracts per-node capacitances from Sea-of-Gates cell layouts; the
// reproduction derives them from transistor counts: every transistor
// terminal deposits a junction capacitance Cj on its node, every fanout
// pin loads the output with a gate capacitance Cg, and every fanout branch
// adds wire capacitance Cw. All instances of a cell therefore share
// identical capacitance budgets, as in the paper.
type Params struct {
	Vdd float64 // supply voltage, volts
	Cj  float64 // junction capacitance per transistor terminal, farads
	Cg  float64 // gate (input pin) capacitance, farads
	Cw  float64 // wire capacitance per fanout branch, farads
}

// DefaultParams returns constants representative of the 0.8 µm-era
// technology of the paper: 3.3 V supply, femtofarad-scale junction and
// gate capacitances.
func DefaultParams() Params {
	return Params{
		Vdd: 3.3,
		Cj:  2e-15,
		Cg:  3e-15,
		Cw:  0.5e-15,
	}
}

// Validate reports whether the parameters are physical.
func (p Params) Validate() error {
	if !(p.Vdd > 0) || math.IsInf(p.Vdd, 1) {
		return fmt.Errorf("core: Vdd %v must be positive and finite", p.Vdd)
	}
	for _, c := range [...]float64{p.Cj, p.Cg, p.Cw} {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("core: capacitance not finite and non-negative in %+v", p)
		}
	}
	if p.Cj == 0 {
		// Internal nodes would be weightless and reordering could not
		// change the modeled power at all.
		return fmt.Errorf("core: Cj must be positive for the internal-node model")
	}
	return nil
}

// OutputLoad returns the output-node load for a gate driving the given
// number of fanout pins (≥ 0), excluding the gate's own junctions.
func (p Params) OutputLoad(fanout int) float64 {
	if fanout < 0 {
		fanout = 0
	}
	return float64(fanout) * (p.Cg + p.Cw)
}
