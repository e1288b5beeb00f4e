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
// together in order; Events sums the blocks' evaluated instants, Lanes is
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
// (1 to stoch.MaxPackLanes). best and worst are two orderings of one
// netlist. Each block is packed once and measured on both (pairMeasure
// compiles them): zero-delay setups run two levelized programs; unit- and
// Elmore-delay setups run on the timed engine with both circuits on one
// tick grid (the finer of their automatic resolutions unless prm.Tick
// pins one), as one fused program when every gate's quantized delay is
// the same in both — always under unit delay — and as two programs with
// the wider of their settle windows otherwise.
func ReductionVectors(best, worst *circuit.Circuit, gen func() (map[string]*stoch.Waveform, error), vectors, lanes int, horizon float64, prm Params) (float64, error) {
	measure, err := pairMeasure(best, worst, horizon, prm)
	if err != nil {
		return 0, err
	}
	var eb, ew float64
	err = forBlocks(gen, vectors, lanes, func(laneWaves []map[string]*stoch.Waveform) error {
		ceb, cew, err := measure(laneWaves)
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

// pairMeasure compiles a best/worst pair for prm.Mode and returns its
// block measurement: pack one block of per-lane waveform sets and return
// both circuits' energies on it. It is the one place that picks the
// pair's engines; every choice measures bit-identical energies.
func pairMeasure(best, worst *circuit.Circuit, horizon float64, prm Params) (func([]map[string]*stoch.Waveform) (eb, ew float64, err error), error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if prm.Mode == ZeroDelay {
		pb, err := Compile(best, prm)
		if err != nil {
			return nil, fmt.Errorf("sim: best circuit: %w", err)
		}
		pw, err := Compile(worst, prm)
		if err != nil {
			return nil, fmt.Errorf("sim: worst circuit: %w", err)
		}
		return func(laneWaves []map[string]*stoch.Waveform) (float64, float64, error) {
			stim, err := stoch.PackWaveforms(best.Inputs, laneWaves, horizon)
			if err != nil {
				return 0, 0, err
			}
			return runEnergyPair(pb.RunEnergy, pw.RunEnergy, stim)
		}, nil
	}
	pair, pb, pw, err := compileTimedPair(best, worst, prm)
	if err != nil {
		return nil, err
	}
	if pair != nil {
		return func(laneWaves []map[string]*stoch.Waveform) (float64, float64, error) {
			stim, err := pair.PackTimed(laneWaves, horizon)
			if err != nil {
				return 0, 0, err
			}
			var e [2]float64
			err = pair.runEnergies(stim, &e)
			return e[0], e[1], err
		}, nil
	}
	// One stimulus serves both programs: align with the wider of the two
	// settle windows so the rigid cluster shifts stay exact for each.
	guard := max(pb.settleTicks, pw.settleTicks)
	return func(laneWaves []map[string]*stoch.Waveform) (float64, float64, error) {
		stim, err := stoch.PackTimedWaveforms(best.Inputs, laneWaves, horizon, pb.tick, guard)
		if err != nil {
			return 0, 0, err
		}
		return runEnergyPair(pb.RunEnergy, pw.RunEnergy, stim)
	}, nil
}

// compileTimedPair compiles a best/worst pair for the timed engine on one
// tick grid resolved over both circuits' gate delays. When every gate's
// quantized delay is the same in both, it returns one fused program
// (pair); otherwise the two circuits' own programs.
func compileTimedPair(best, worst *circuit.Circuit, prm Params) (pair, pb, pw *TimedProgram, err error) {
	tb, err := planTimed(best, prm)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: best circuit: %w", err)
	}
	tw, err := planTimed(worst, prm)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: worst circuit: %w", err)
	}
	tick, err := resolveTick(prm, tb.delays, tw.delays)
	if err != nil {
		return nil, nil, nil, err
	}
	if sameDelays(tb, tw, tick) {
		pair, err = compileTimed(tick, prm.Cap, tb, tw)
		return pair, nil, nil, err
	}
	if pb, err = compileTimed(tick, prm.Cap, tb, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("sim: best circuit: %w", err)
	}
	if pw, err = compileTimed(tick, prm.Cap, tw, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("sim: worst circuit: %w", err)
	}
	return nil, pb, pw, nil
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
