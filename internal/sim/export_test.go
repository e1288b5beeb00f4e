package sim

import "repro/internal/stoch"

// CompileTimedPair exposes the S column's timed compile to the external
// tests: one fused program when the pair's quantized delays agree, the
// two circuits' own programs otherwise.
var CompileTimedPair = compileTimedPair

// PairEnergies runs stim once on a fused program and returns the best and
// worst orderings' energies.
func (tp *TimedProgram) PairEnergies(stim *stoch.TimedStimulus) (eb, ew float64, err error) {
	var e [2]float64
	err = tp.runEnergies(stim, &e)
	return e[0], e[1], err
}
