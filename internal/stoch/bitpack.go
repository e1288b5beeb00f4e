package stoch

import (
	"fmt"
	"math"
)

// MaxLanes is the number of independent Monte Carlo vector streams one
// machine word carries: one per bit.
const MaxLanes = 64

// MaxWords is the widest register block the bit-parallel engines
// evaluate: W machine words per node, structure-of-arrays, so a packed
// stimulus carries up to MaxPackLanes independent lanes. The engines
// evaluate four words at a time and any remainder one word at a time.
const MaxWords = 8

// MaxPackLanes is the lane capacity of the widest register block.
const MaxPackLanes = MaxWords * MaxLanes

// WordsFor returns the register-block width (words per node) that holds
// the given number of lanes: ceil(lanes/64), without range checking.
func WordsFor(lanes int) int {
	return (lanes + MaxLanes - 1) / MaxLanes
}

// laneMaskWord returns the mask of active lanes in word w of a register
// block of `words` words carrying `lanes` active lanes. It returns 0
// whenever lanes is outside [1, words·64] — exactly the range Validate
// rejects — so a caller that skips Validate meters no phantom lanes on
// an over-range stimulus.
func laneMaskWord(lanes, words, w int) uint64 {
	if lanes < 1 || lanes > words*MaxLanes || w < 0 || w >= words {
		return 0
	}
	rem := lanes - w*MaxLanes
	switch {
	case rem <= 0:
		return 0
	case rem >= MaxLanes:
		return ^uint64(0)
	}
	return uint64(1)<<uint(rem) - 1
}

// PackedStimulus is a bit-packed Monte Carlo stimulus for the compiled
// bit-parallel simulator: up to Words·64 independent input-vector
// sequences, one per bit lane, laid out structure-of-arrays in register
// blocks of Words machine words. Step s of lane l is the state of every
// primary input after the lane's s-th zero-delay settling instant; lanes
// with fewer instants than Steps simply repeat their final state (no
// transitions, no energy). All simultaneous input changes of one instant
// share a step, so a zero-delay circuit sees them atomically — the same
// per-timestamp grouping the reference oracle applies.
//
// Lane l lives in word l/64, bit l%64 of its block. Word w of input i's
// block is Initial[i·W+w] at t=0 and Bits[i][s·W+w] after step s, where
// W = WordWidth().
type PackedStimulus struct {
	Inputs  []string   // primary-input order; Bits and Initial are parallel to it
	Lanes   int        // active lanes, 1..Words·64
	Words   int        // register-block width in words; 0 is treated as 1
	Steps   int        // settling instants in the longest lane
	Horizon float64    // per-lane simulated seconds (power normalization)
	Initial []uint64   // [input·W + w] lane bits at t=0, before any step
	Bits    [][]uint64 // [input][step·W + w] lane bits after the step
}

// WordWidth returns the register-block width W in words (≥ 1).
func (ps *PackedStimulus) WordWidth() int {
	if ps.Words < 1 {
		return 1
	}
	return ps.Words
}

// LaneMask returns the mask selecting the active lanes of word 0. For an
// over-range stimulus (Lanes outside what Validate accepts) it returns 0
// rather than a full word, so skipping Validate cannot meter phantom
// lanes.
func (ps *PackedStimulus) LaneMask() uint64 { return ps.WordMask(0) }

// WordMask returns the mask selecting the active lanes of block word w:
// all-ones for fully occupied words, a partial mask for the last active
// word, 0 for words beyond the active lanes — and 0 for every word when
// Lanes is outside the range Validate accepts.
func (ps *PackedStimulus) WordMask(w int) uint64 {
	return laneMaskWord(ps.Lanes, ps.WordWidth(), w)
}

// Validate checks structural sanity.
func (ps *PackedStimulus) Validate() error {
	w := ps.WordWidth()
	if w > MaxWords {
		return fmt.Errorf("stoch: %d-word register block wider than %d", w, MaxWords)
	}
	if ps.Lanes < 1 || ps.Lanes > w*MaxLanes {
		return fmt.Errorf("stoch: %d lanes out of [1,%d]", ps.Lanes, w*MaxLanes)
	}
	if !positiveFinite(ps.Horizon) {
		return fmt.Errorf("stoch: packed horizon %v must be positive and finite", ps.Horizon)
	}
	if len(ps.Initial) != len(ps.Inputs)*w || len(ps.Bits) != len(ps.Inputs) {
		return fmt.Errorf("stoch: packed stimulus shape mismatch: %d inputs × %d words, %d initial, %d bit rows",
			len(ps.Inputs), w, len(ps.Initial), len(ps.Bits))
	}
	for i, row := range ps.Bits {
		if len(row) != ps.Steps*w {
			return fmt.Errorf("stoch: input %q has %d step words, want %d×%d", ps.Inputs[i], len(row), ps.Steps, w)
		}
	}
	return nil
}

// gatherWaveforms looks up every lane's waveform for every input and
// returns them lane-major, waves[l·len(inputs)+i], with the total event
// count (an upper bound on the events packed). It sets each lane's
// initial bits in initial ([input·W + w], W = WordsFor(len(lanes))) and
// rejects a missing waveform or an event time that is NaN, infinite or
// negative, naming the lane and the input.
func gatherWaveforms(inputs []string, lanes []map[string]*Waveform, initial []uint64) ([]*Waveform, int, error) {
	W := WordsFor(len(lanes))
	waves := make([]*Waveform, 0, len(lanes)*len(inputs))
	events := 0
	for l, lw := range lanes {
		for i, in := range inputs {
			w, ok := lw[in]
			if !ok {
				return nil, 0, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			for _, e := range w.Events {
				if !(e.Time >= 0) || math.IsInf(e.Time, 1) {
					return nil, 0, fmt.Errorf("stoch: lane %d input %q: event time %v is not finite and non-negative", l, in, e.Time)
				}
			}
			if w.Initial {
				initial[i*W+l/MaxLanes] |= 1 << uint(l%MaxLanes)
			}
			waves = append(waves, w)
			events += len(w.Events)
		}
	}
	return waves, events, nil
}

// packedEvent is one input change of one lane during packing. key is the
// float64 bit pattern of the event time, with -0 stored as +0: times are
// non-negative, so keys order and compare equal exactly like the times.
type packedEvent struct {
	key   uint64
	input int32
	value bool
}

// PackWaveforms bit-packs per-lane waveform sets into a PackedStimulus:
// lanes[l] maps every input name to that lane's waveform (the shape
// GenerateWaveforms in package sim produces). Up to MaxPackLanes lanes
// pack into a register block of WordsFor(len(lanes)) words. Events beyond
// the horizon are dropped, events at the same instant within a lane
// collapse into one step, and events that do not change the input value
// contribute no step — the packed sequence records exactly the settling
// instants a zero-delay simulation of the same waveforms would see. A
// NaN, infinite or negative event time is an error.
//
// Packing runs in time linear in the events and the packed words: each
// lane's events are ordered by stable radix passes, never a comparison
// sort, and each input's runs of equal value are written straight into
// Bits, with no per-step snapshot.
func PackWaveforms(inputs []string, lanes []map[string]*Waveform, horizon float64) (*PackedStimulus, error) {
	if len(lanes) < 1 || len(lanes) > MaxPackLanes {
		return nil, fmt.Errorf("stoch: %d lanes out of [1,%d]", len(lanes), MaxPackLanes)
	}
	if !positiveFinite(horizon) {
		return nil, fmt.Errorf("stoch: packed horizon %v must be positive and finite", horizon)
	}
	W := WordsFor(len(lanes))
	ps := &PackedStimulus{
		Inputs:  append([]string(nil), inputs...),
		Lanes:   len(lanes),
		Words:   W,
		Horizon: horizon,
		Initial: make([]uint64, len(inputs)*W),
		Bits:    make([][]uint64, len(inputs)),
	}
	waves, _, err := gatherWaveforms(inputs, lanes, ps.Initial)
	if err != nil {
		return nil, err
	}
	for i := range ps.Bits {
		ps.Bits[i] = []uint64{}
	}
	n := len(inputs)
	// Each input's bits are written a run at a time: runs[l·n+i] is the
	// step at which lane l's input i took its current value, val[i], and
	// state[i] is its value while an instant's events apply. When a lane
	// is done, runs holds -1 for inputs that end at 0.
	runs := make([]int, len(lanes)*n)
	state, val := make([]bool, n), make([]bool, n)
	var evs, scratch []packedEvent
	for l := range lanes {
		run := runs[l*n : (l+1)*n]
		evs = evs[:0]
		for i, w := range waves[l*n : (l+1)*n] {
			state[i], val[i] = w.Initial, w.Initial
			for _, e := range w.Events {
				if e.Time > horizon {
					break
				}
				key := math.Float64bits(e.Time)
				if e.Time == 0 {
					key = 0
				}
				evs = append(evs, packedEvent{key: key, input: int32(i), value: e.Value})
			}
		}
		if cap(scratch) < len(evs) {
			scratch = make([]packedEvent, cap(evs))
		}
		sortByTime(evs, scratch[:len(evs)])
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		s := 0 // the lane's next step
		for k := 0; k < len(evs); {
			first := k
			changed := false
			for ; k < len(evs) && evs[k].key == evs[first].key; k++ {
				if e := evs[k]; state[e.input] != e.value {
					state[e.input] = e.value
					changed = true
				}
			}
			if !changed {
				continue
			}
			if s == ps.Steps {
				ps.Steps++
				for i := range ps.Bits {
					ps.Bits[i] = append(ps.Bits[i], make([]uint64, W)...)
				}
			}
			for _, e := range evs[first:k] {
				if i := e.input; state[i] != val[i] {
					if val[i] {
						setLane(ps.Bits[i], run[i], s, W, word, bit)
					}
					val[i], run[i] = state[i], s
				}
			}
			s++
		}
		for i, v := range val {
			if !v {
				run[i] = -1
			}
		}
	}
	// Every lane holds its final values through the last step.
	for l := range lanes {
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

// sortByTime stably sorts evs by key in place, one byte of the key per
// LSD radix pass, with scratch (as long as evs) as the other buffer.
// Bytes on which every key agrees take no pass.
func sortByTime(evs, scratch []packedEvent) {
	if len(evs) < 2 {
		return
	}
	var diff uint64
	for _, e := range evs {
		diff |= e.key ^ evs[0].key
	}
	src, dst := evs, scratch
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var pos [256]int
		for _, e := range src {
			pos[byte(e.key>>shift)]++
		}
		sum := 0
		for d, n := range pos {
			pos[d] = sum
			sum += n
		}
		for _, e := range src {
			d := byte(e.key >> shift)
			dst[pos[d]] = e
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &evs[0] {
		copy(evs, src)
	}
}
