package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/stoch"
)

// This file is the chunked measurement driver: an arbitrary Monte Carlo
// vector budget evaluated through the bit-parallel engines in register
// blocks of a chosen lane width. Both circuits compile once; stimulus
// realizations stream through the pooled RunEnergy paths pack by pack and
// the energies sum exactly, so a run chunked into 64-lane packs and the
// same vectors in one 512-lane pack are identical measurements — the
// W=1 chunked path is the degenerate case of the wide path, and both are
// pinned lane-for-lane against the reference oracle by the equivalence
// tests.

// ReductionVectors measures (worstPower-bestPower)/worstPower over
// `vectors` total Monte Carlo realizations drawn one at a time from gen,
// evaluated in register blocks of up to `lanes` lanes per pass (1 to
// stoch.MaxPackLanes; 64 recovers the one-word engines, 256/512 the wide
// kernels). Zero-delay setups run on the levelized compiled engine;
// unit- and Elmore-delay setups run on the timed compiled engine with
// both circuits on one shared tick grid, exactly like ReductionTimed.
// Chunk boundaries do not perturb the stimulus stream: gen is called
// `vectors` times in order regardless of the lane width.
func ReductionVectors(best, worst *circuit.Circuit, gen func() (map[string]*stoch.Waveform, error), vectors, lanes int, horizon float64, prm Params) (float64, error) {
	if vectors < 1 {
		return 0, fmt.Errorf("sim: %d vectors; need at least 1", vectors)
	}
	if lanes < 1 || lanes > stoch.MaxPackLanes {
		return 0, fmt.Errorf("sim: %d lanes out of [1,%d]", lanes, stoch.MaxPackLanes)
	}
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
			prm.Tick = tb
			if tw < tb {
				prm.Tick = tw
			}
		}
		pb, err := CompileTimed(best, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: best circuit: %w", err)
		}
		pw, err := CompileTimed(worst, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: worst circuit: %w", err)
		}
		guard := pb.SettleTicks()
		if pw.SettleTicks() > guard {
			guard = pw.SettleTicks()
		}
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
				return 0, err
			}
			laneWaves = append(laneWaves, w)
		}
		ceb, cew, err := pack(laneWaves)
		if err != nil {
			return 0, err
		}
		eb += ceb
		ew += cew
		done += n
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
