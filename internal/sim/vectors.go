package sim

import (
	"fmt"
	"math/rand"
	"sync"

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
	// runBlock packs the lanes drawn into b for this engine and evaluates
	// them.
	runBlock(b *stoch.WaveBuffer, horizon float64) (*BitResult, error)
	// inputCount returns the number of primary inputs: the waveforms a
	// drawer appends per vector.
	inputCount() int
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

func (lw *lowering) inputCount() int { return len(lw.inputs) }

func (p *Program) runBlock(b *stoch.WaveBuffer, horizon float64) (*BitResult, error) {
	stim, err := b.Pack(p.inputs, horizon)
	if err != nil {
		return nil, err
	}
	return p.Run(stim)
}

func (tp *TimedProgram) runBlock(b *stoch.WaveBuffer, horizon float64) (*BitResult, error) {
	stim, err := b.PackTimed(tp.inputs, horizon, tp.tick, tp.settleTicks)
	if err != nil {
		return nil, err
	}
	return tp.Run(stim)
}

// A Drawer draws one Monte Carlo vector into a wave buffer: one waveform
// per primary input, appended in the circuit's input order (see
// stoch.WaveBuffer). ExponentialDrawer and ClockedDrawer build the two
// scenarios' drawers.
type Drawer func(*stoch.WaveBuffer) error

// ExponentialDrawer returns the scenario-A drawer: per vector, one
// Signal.AppendExponential draw per input, in input order, from rng —
// what GenerateWaveforms returns for the same arguments, so the two on
// equally seeded rngs yield the same stimulus vector for vector.
func ExponentialDrawer(inputs []string, stats map[string]stoch.Signal, horizon float64, rng *rand.Rand) Drawer {
	return signalDrawer(inputs, stats, func(s stoch.Signal, b *stoch.WaveBuffer) error {
		return s.AppendExponential(b, horizon, rng)
	})
}

// ClockedDrawer returns the scenario-B drawer: per vector, one
// Signal.AppendClocked draw per input, in input order, from rng — what
// GenerateClockedWaveforms returns for the same arguments.
func ClockedDrawer(inputs []string, stats map[string]stoch.Signal, cycles int, period float64, rng *rand.Rand) Drawer {
	return signalDrawer(inputs, stats, func(s stoch.Signal, b *stoch.WaveBuffer) error {
		return s.AppendClocked(b, cycles, period, rng)
	})
}

// signalDrawer looks every input's statistics up once and returns a
// drawer that appends one waveform per input, in input order. An input
// without statistics fails every draw.
func signalDrawer(inputs []string, stats map[string]stoch.Signal, draw func(stoch.Signal, *stoch.WaveBuffer) error) Drawer {
	sigs := make([]stoch.Signal, len(inputs))
	for i, in := range inputs {
		s, ok := stats[in]
		if !ok {
			err := fmt.Errorf("sim: no statistics for input %q", in)
			return func(*stoch.WaveBuffer) error { return err }
		}
		sigs[i] = s
	}
	return func(b *stoch.WaveBuffer) error {
		for i, s := range sigs {
			if err := draw(s, b); err != nil {
				return fmt.Errorf("sim: input %q: %w", inputs[i], err)
			}
		}
		return nil
	}
}

// RunVectors measures `vectors` Monte Carlo realizations drawn one at a
// time by draw, evaluated on p in register blocks of up to `lanes` lanes
// (1 to stoch.MaxPackLanes): forBlocks draws each block into a pooled
// wave buffer, and p's packer packs it into that buffer's stimulus. The
// blocks' counts and energies fold together in order; Events sums the
// blocks' evaluated instants, Lanes is the vector total and Power is the
// mean per-vector power, Energy / (vectors·horizon).
func RunVectors(p Compiled, draw Drawer, vectors, lanes int, horizon float64) (*BitResult, error) {
	total := &BitResult{Result: Result{Horizon: horizon}, Lanes: vectors}
	err := forBlocks(draw, p.inputCount(), vectors, lanes, func(b *stoch.WaveBuffer) error {
		br, err := p.runBlock(b, horizon)
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

// wavePool holds the wave buffers forBlocks draws into. A sweep job
// compiles its own programs and measures one block, so the buffers, and
// the stimulus each packs in place, are pooled across calls rather than
// per program.
var wavePool = sync.Pool{New: func() any { return new(stoch.WaveBuffer) }}

// forBlocks draws `vectors` vectors from draw in order, each with
// `inputs` waveforms, and hands them to run in blocks of up to `lanes`.
// Block boundaries do not perturb the stimulus stream: draw is called
// `vectors` times regardless of the lane width. Every block is drawn
// into one wave buffer taken from wavePool and returned to it when
// forBlocks returns, so run must not retain the buffer, nor any stimulus
// packed into it, past its own return. Once the pooled buffer and the
// packers' scratch have grown to the block size, drawing and packing a
// block allocate nothing.
func forBlocks(draw Drawer, inputs, vectors, lanes int, run func(*stoch.WaveBuffer) error) error {
	if vectors < 1 {
		return fmt.Errorf("sim: %d vectors; need at least 1", vectors)
	}
	if lanes < 1 || lanes > stoch.MaxPackLanes {
		return fmt.Errorf("sim: %d lanes out of [1,%d]", lanes, stoch.MaxPackLanes)
	}
	b := wavePool.Get().(*stoch.WaveBuffer)
	defer wavePool.Put(b)
	for done := 0; done < vectors; {
		n := min(lanes, vectors-done)
		if err := drawBlock(b, draw, inputs, n); err != nil {
			return err
		}
		if err := run(b); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// drawBlock resets b and draws n vectors of `inputs` waveforms into it,
// one lane each.
func drawBlock(b *stoch.WaveBuffer, draw Drawer, inputs, n int) error {
	b.Reset(inputs)
	for range n {
		if err := draw(b); err != nil {
			return err
		}
		if err := b.EndLane(); err != nil {
			return err
		}
	}
	return nil
}

// ReductionVectors measures (worstPower-bestPower)/worstPower — the S
// column of Table 3 — over `vectors` Monte Carlo realizations drawn one
// at a time by draw, in register blocks of up to `lanes` lanes per pass
// (1 to stoch.MaxPackLanes). best and worst are two orderings of one
// netlist. Each block is drawn into a pooled wave buffer (forBlocks),
// packed once into that buffer's stimulus and measured on both
// (pairMeasure compiles them): zero-delay setups run two levelized
// programs; unit- and Elmore-delay setups run on the timed engine with
// both circuits on one tick grid (the finer of their automatic
// resolutions unless prm.Tick pins one), as one fused program when every
// gate's quantized delay is the same in both — always under unit delay —
// and as two programs with the wider of their settle windows otherwise.
// Past the first block, a block allocates nothing.
func ReductionVectors(best, worst *circuit.Circuit, draw Drawer, vectors, lanes int, horizon float64, prm Params) (float64, error) {
	measure, err := pairMeasure(best, worst, horizon, prm)
	if err != nil {
		return 0, err
	}
	var eb, ew float64
	err = forBlocks(draw, len(best.Inputs), vectors, lanes, func(b *stoch.WaveBuffer) error {
		ceb, cew, err := measure(b)
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
// block measurement: pack the lanes drawn into a wave buffer and return
// both circuits' energies on them. It is the one place that picks the
// pair's engines; every choice measures bit-identical energies.
func pairMeasure(best, worst *circuit.Circuit, horizon float64, prm Params) (func(*stoch.WaveBuffer) (eb, ew float64, err error), error) {
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
		return func(b *stoch.WaveBuffer) (float64, float64, error) {
			stim, err := b.Pack(best.Inputs, horizon)
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
		return func(b *stoch.WaveBuffer) (float64, float64, error) {
			stim, err := b.PackTimed(pair.inputs, horizon, pair.tick, pair.settleTicks)
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
	return func(b *stoch.WaveBuffer) (float64, float64, error) {
		stim, err := b.PackTimed(best.Inputs, horizon, pb.tick, guard)
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
