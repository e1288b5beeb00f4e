package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/stoch"
)

// This file is the chunked measurement driver: an arbitrary Monte Carlo
// vector budget evaluated through the compiled engines in register blocks
// of a chosen lane width. The circuit compiles once; stimulus
// realizations are drawn one at a time, in the same order at every lane
// width, and stream through the engine block by block. Transition counts
// are therefore independent of the width. Energies are too, up to
// floating-point rounding: each block's energy is summed separately and
// the block sums are then added, so a different width sums in a different
// order and can differ in the last digits.

// Compiled is a circuit compiled for the engine one delay mode runs on:
// a *Program (zero delay) or a *TimedProgram (unit or Elmore delay).
type Compiled interface {
	// runBlock packs one register block of per-lane waveform sets for
	// this engine and evaluates it.
	runBlock(laneWaves []map[string]*stoch.Waveform, horizon float64) (*BitResult, error)
}

// CompileFor compiles c for the engine prm.Mode selects: the levelized
// program for zero delay, the timed program otherwise.
func CompileFor(c *circuit.Circuit, prm Params) (Compiled, error) {
	if prm.Mode == ZeroDelay {
		p, err := Compile(c, prm)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	tp, err := CompileTimed(c, prm)
	if err != nil {
		return nil, err
	}
	return tp, nil
}

func (p *Program) runBlock(laneWaves []map[string]*stoch.Waveform, horizon float64) (*BitResult, error) {
	stim, err := stoch.PackWaveforms(p.inputs, laneWaves, horizon)
	if err != nil {
		return nil, err
	}
	return p.Run(stim)
}

func (tp *TimedProgram) runBlock(laneWaves []map[string]*stoch.Waveform, horizon float64) (*BitResult, error) {
	stim, err := tp.PackTimed(laneWaves, horizon)
	if err != nil {
		return nil, err
	}
	return tp.Run(stim)
}

// RunVectors measures `vectors` Monte Carlo realizations drawn one at a
// time from gen, evaluated on p in register blocks of up to `lanes` lanes
// (1 to stoch.MaxPackLanes). The blocks' counts and energies fold
// together in order; Steps sums the blocks' evaluated instants, Lanes is
// the vector total and Power is the mean per-vector power,
// Energy / (vectors·horizon).
func RunVectors(p Compiled, gen func() (map[string]*stoch.Waveform, error), vectors, lanes int, horizon float64) (*BitResult, error) {
	total := &BitResult{Result: Result{Horizon: horizon}, Lanes: vectors}
	err := forBlocks(gen, vectors, lanes, func(laneWaves []map[string]*stoch.Waveform) error {
		br, err := p.runBlock(laneWaves, horizon)
		if err != nil {
			return err
		}
		total.Accumulate(&br.Result)
		total.Steps += br.Steps
		return nil
	})
	if err != nil {
		return nil, err
	}
	total.Power = total.Energy / (float64(vectors) * horizon)
	return total, nil
}

// forBlocks draws `vectors` waveform sets from gen in order and hands
// them to run in blocks of up to `lanes`. Block boundaries do not perturb
// the stimulus stream: gen is called `vectors` times regardless of the
// lane width. The block slice is reused, so run must not retain it.
func forBlocks(gen func() (map[string]*stoch.Waveform, error), vectors, lanes int, run func([]map[string]*stoch.Waveform) error) error {
	if vectors < 1 {
		return fmt.Errorf("sim: %d vectors; need at least 1", vectors)
	}
	if lanes < 1 || lanes > stoch.MaxPackLanes {
		return fmt.Errorf("sim: %d lanes out of [1,%d]", lanes, stoch.MaxPackLanes)
	}
	laneWaves := make([]map[string]*stoch.Waveform, 0, lanes)
	for done := 0; done < vectors; {
		n := lanes
		if vectors-done < n {
			n = vectors - done
		}
		laneWaves = laneWaves[:0]
		for l := 0; l < n; l++ {
			w, err := gen()
			if err != nil {
				return err
			}
			laneWaves = append(laneWaves, w)
		}
		if err := run(laneWaves); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ReductionVectors measures (worstPower-bestPower)/worstPower — the S
// column of Table 3 — over `vectors` Monte Carlo realizations drawn one
// at a time from gen, in register blocks of up to `lanes` lanes per pass
// (1 to stoch.MaxPackLanes). Each block is packed once and evaluated on
// both circuits. Zero-delay setups run on the levelized compiled engine;
// unit- and Elmore-delay setups run on the timed compiled engine with
// both circuits on one shared tick grid (the finer of their automatic
// resolutions unless prm.Tick pins one) and one stimulus aligned to the
// wider of their settle windows.
func ReductionVectors(best, worst *circuit.Circuit, gen func() (map[string]*stoch.Waveform, error), vectors, lanes int, horizon float64, prm Params) (float64, error) {
	if err := prm.Validate(); err != nil {
		return 0, err
	}
	var pack func(laneWaves []map[string]*stoch.Waveform) (eb, ew float64, err error)
	if prm.Mode == ZeroDelay {
		pb, err := Compile(best, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: best circuit: %w", err)
		}
		pw, err := Compile(worst, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: worst circuit: %w", err)
		}
		pack = func(laneWaves []map[string]*stoch.Waveform) (float64, float64, error) {
			stim, err := stoch.PackWaveforms(best.Inputs, laneWaves, horizon)
			if err != nil {
				return 0, 0, err
			}
			return runEnergyPair(pb.RunEnergy, pw.RunEnergy, stim)
		}
	} else {
		if prm.Tick == 0 {
			tb, err := autoTick(best, prm)
			if err != nil {
				return 0, fmt.Errorf("sim: best circuit: %w", err)
			}
			tw, err := autoTick(worst, prm)
			if err != nil {
				return 0, fmt.Errorf("sim: worst circuit: %w", err)
			}
			prm.Tick = min(tb, tw)
		}
		pb, err := CompileTimed(best, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: best circuit: %w", err)
		}
		pw, err := CompileTimed(worst, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: worst circuit: %w", err)
		}
		// One stimulus serves both circuits: align with the wider of the two
		// settle windows so the rigid cluster shifts stay exact for each.
		guard := max(pb.SettleTicks(), pw.SettleTicks())
		tick := prm.Tick
		pack = func(laneWaves []map[string]*stoch.Waveform) (float64, float64, error) {
			stim, err := stoch.PackTimedWaveforms(best.Inputs, laneWaves, horizon, tick, guard)
			if err != nil {
				return 0, 0, err
			}
			return runEnergyPair(pb.RunEnergy, pw.RunEnergy, stim)
		}
	}

	var eb, ew float64
	err := forBlocks(gen, vectors, lanes, func(laneWaves []map[string]*stoch.Waveform) error {
		ceb, cew, err := pack(laneWaves)
		eb += ceb
		ew += cew
		return err
	})
	if err != nil {
		return 0, err
	}
	if ew == 0 {
		return 0, nil
	}
	// Powers share the vectors·horizon normalization, so the energy ratio
	// is the power ratio.
	return (ew - eb) / ew, nil
}

// runEnergyPair measures one stimulus on a best/worst pair of compiled
// RunEnergy paths.
func runEnergyPair[S any](runBest, runWorst func(S) (float64, error), stim S) (float64, float64, error) {
	eb, err := runBest(stim)
	if err != nil {
		return 0, 0, fmt.Errorf("sim: best circuit: %w", err)
	}
	ew, err := runWorst(stim)
	if err != nil {
		return 0, 0, fmt.Errorf("sim: worst circuit: %w", err)
	}
	return eb, ew, nil
}
