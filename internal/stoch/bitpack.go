package stoch

import (
	"fmt"
	"math"
	"slices"
)

// PackedStimulus is a bit-packed Monte Carlo stimulus for the compiled
// bit-parallel simulator: up to MaxPackLanes independent input-vector
// sequences, one per bit lane, laid out structure-of-arrays in register
// blocks of Words machine words. Step s of lane l is the state of every
// primary input after the lane's s-th zero-delay settling instant; lanes
// with fewer instants than Steps simply repeat their final state (no
// transitions, no energy). All simultaneous input changes of one instant
// share a step, so a zero-delay circuit sees them atomically — the same
// per-timestamp grouping the reference oracle applies.
//
// Word w of input i's block is Initial[i·W+w] at t=0 and Bits[i][s·W+w]
// after step s, where W = WordWidth().
type PackedStimulus struct {
	Block
	Steps int        // settling instants in the longest lane
	Bits  [][]uint64 // [input][step·W + w] lane bits after the step
}

// Validate checks structural sanity.
func (ps *PackedStimulus) Validate() error {
	if err := ps.Block.Validate(); err != nil {
		return err
	}
	w := ps.WordWidth()
	if len(ps.Bits) != len(ps.Inputs) {
		return fmt.Errorf("stoch: packed stimulus has %d bit rows for %d inputs", len(ps.Bits), len(ps.Inputs))
	}
	for i, row := range ps.Bits {
		if len(row) != ps.Steps*w {
			return fmt.Errorf("stoch: input %q has %d step words, want %d×%d", ps.Inputs[i], len(row), ps.Steps, w)
		}
	}
	return nil
}

// PackWaveforms bit-packs per-lane waveform sets into a PackedStimulus:
// lanes[l] maps every input name to that lane's waveform (the shape
// GenerateWaveforms in package sim produces). It copies the waveforms
// into a new WaveBuffer in input order and packs that with
// WaveBuffer.Pack, which documents the packing.
func PackWaveforms(inputs []string, lanes []map[string]*Waveform, horizon float64) (*PackedStimulus, error) {
	b, err := waveBufferOf(inputs, lanes)
	if err != nil {
		return nil, err
	}
	return b.Pack(inputs, horizon)
}

// Pack bit-packs the buffer's lanes into a PackedStimulus; inputs names
// the buffer's inputs in order. Up to MaxPackLanes lanes pack into a
// register block of WordsFor(lanes) words. Events beyond the horizon are
// dropped, events at the same instant within a lane collapse into one
// step, and events that do not change the input value contribute no step
// — the packed sequence records exactly the settling instants a
// zero-delay simulation of the same waveforms would see. A NaN, infinite
// or negative event time is an error.
//
// Packing runs in time linear in the events and the packed words: each
// lane's input changes are ordered by the timed packer's stable radix
// passes, keyed on the bit patterns of their (non-negative) times, never
// a comparison sort, and each input's runs of equal value are written
// straight into Bits, with no per-step snapshot. Its working memory comes
// from a package-level pool, and the returned stimulus is the buffer's
// own: it stays valid until the buffer next packs a zero-delay stimulus,
// so a reused buffer packs block after block without allocating.
func (b *WaveBuffer) Pack(inputs []string, horizon float64) (*PackedStimulus, error) {
	ps := &b.packed
	if err := b.header(&ps.Block, inputs, horizon); err != nil {
		return nil, err
	}
	W, n := ps.Words, b.inputs
	ps.Steps = 0
	// Rows are emptied, not freed, and never nil, as a fresh pack's are.
	if ps.Bits == nil || cap(ps.Bits) < n {
		ps.Bits = make([][]uint64, n)
	}
	ps.Bits = ps.Bits[:n]
	for i, row := range ps.Bits {
		if row == nil {
			row = []uint64{}
		}
		ps.Bits[i] = row[:0]
	}
	sc := packPool.Get().(*packScratch)
	defer packPool.Put(sc)
	// Each input's bits are written a run at a time: runs[l·n+i] is the
	// step at which lane l's input i took its current value, val[i]. When
	// a lane is done, runs holds -1 for inputs that end at 0.
	runs := zeroed(sc.runs, b.lanes*n)
	val := slices.Grow(sc.val[:0], n)[:n]
	evs, scratch := sc.evs, sc.tmp
	for l := range b.lanes {
		run := runs[l*n : (l+1)*n]
		evs = evs[:0]
		// Waveform events are time-ordered, so each input keeps just the
		// events that change its running value: every packed event is a
		// toggle. Keyed by its bit pattern, with -0 stored as +0, a
		// non-negative time orders and compares equal like the time, so
		// the tick sort orders the lane's toggles stably.
		for i := range n {
			v, events := b.Wave(l, i)
			val[i] = v
			for _, e := range events {
				if e.Time > horizon {
					break
				}
				if e.Value == v {
					continue
				}
				v = e.Value
				key := int64(math.Float64bits(e.Time))
				if e.Time == 0 {
					key = 0
				}
				evs = append(evs, timedEvent{tick: key, input: int32(i), lane: int32(l)})
			}
		}
		scratch = slices.Grow(scratch[:0], len(evs))[:len(evs)]
		sc.sortByTick(evs, scratch)
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		// One step per instant: a same-instant pulse toggles an input twice
		// and ends one run at s and starts the next there, leaving the
		// input's bits as if neither toggle happened.
		for k, s := 0, 0; k < len(evs); s++ {
			if s == ps.Steps {
				ps.Steps++
				for i := range ps.Bits {
					ps.Bits[i] = append(ps.Bits[i], make([]uint64, W)...)
				}
			}
			for t := evs[k].tick; k < len(evs) && evs[k].tick == t; k++ {
				i := evs[k].input
				if val[i] {
					setLane(ps.Bits[i], run[i], s, W, word, bit)
				}
				val[i], run[i] = !val[i], s
			}
		}
		for i, v := range val {
			if !v {
				run[i] = -1
			}
		}
	}
	sc.evs, sc.tmp, sc.runs, sc.val = evs, scratch, runs, val
	// Every lane holds its final values through the last step.
	for l := range b.lanes {
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		for i, from := range runs[l*n : (l+1)*n] {
			if from >= 0 {
				setLane(ps.Bits[i], from, ps.Steps, W, word, bit)
			}
		}
	}
	return ps, nil
}

// setLane sets a lane's bit (bit of block word word) in steps [from, to)
// of an input's Bits row.
func setLane(row []uint64, from, to, W, word int, bit uint64) {
	for s := from; s < to; s++ {
		row[s*W+word] |= bit
	}
}
