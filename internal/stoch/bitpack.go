package stoch

import (
	"fmt"
	"sort"
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
	if ps.Horizon <= 0 {
		return fmt.Errorf("stoch: packed horizon %v must be positive", ps.Horizon)
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

// packedEvent is one input change of one lane during packing.
type packedEvent struct {
	time  float64
	input int
	value bool
}

// PackWaveforms bit-packs per-lane waveform sets into a PackedStimulus:
// lanes[l] maps every input name to that lane's waveform (the shape
// GenerateWaveforms in package sim produces). Up to MaxPackLanes lanes
// pack into a register block of WordsFor(len(lanes)) words. Events beyond
// the horizon are dropped, events at the same instant within a lane
// collapse into one step, and events that do not change the input value
// contribute no step — the packed sequence records exactly the settling
// instants a zero-delay simulation of the same waveforms would see.
func PackWaveforms(inputs []string, lanes []map[string]*Waveform, horizon float64) (*PackedStimulus, error) {
	if len(lanes) < 1 || len(lanes) > MaxPackLanes {
		return nil, fmt.Errorf("stoch: %d lanes out of [1,%d]", len(lanes), MaxPackLanes)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("stoch: packed horizon %v must be positive", horizon)
	}
	W := WordsFor(len(lanes))
	ps := &PackedStimulus{
		Inputs:  append([]string(nil), inputs...),
		Lanes:   len(lanes),
		Words:   W,
		Horizon: horizon,
		Initial: make([]uint64, len(inputs)*W),
	}
	// Per lane: the sequence of input-state snapshots, one per instant at
	// which at least one input actually changes.
	snapshots := make([][][]bool, len(lanes))
	for l, waves := range lanes {
		state := make([]bool, len(inputs))
		var evs []packedEvent
		for i, in := range inputs {
			w, ok := waves[in]
			if !ok {
				return nil, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			state[i] = w.Initial
			if w.Initial {
				ps.Initial[i*W+l/MaxLanes] |= 1 << uint(l%MaxLanes)
			}
			for _, e := range w.Events {
				if e.Time > horizon {
					break
				}
				evs = append(evs, packedEvent{time: e.Time, input: i, value: e.Value})
			}
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].time < evs[b].time })
		for k := 0; k < len(evs); {
			t := evs[k].time
			changed := false
			for ; k < len(evs) && evs[k].time == t; k++ {
				if state[evs[k].input] != evs[k].value {
					state[evs[k].input] = evs[k].value
					changed = true
				}
			}
			if changed {
				snapshots[l] = append(snapshots[l], append([]bool(nil), state...))
			}
		}
	}
	for _, seq := range snapshots {
		if len(seq) > ps.Steps {
			ps.Steps = len(seq)
		}
	}
	ps.Bits = make([][]uint64, len(inputs))
	for i := range inputs {
		ps.Bits[i] = make([]uint64, ps.Steps*W)
	}
	for l, seq := range snapshots {
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		for s := 0; s < ps.Steps; s++ {
			var snap []bool
			switch {
			case s < len(seq):
				snap = seq[s]
			case len(seq) > 0:
				snap = seq[len(seq)-1] // lane exhausted: hold final state
			}
			for i := range inputs {
				v := snap != nil && snap[i]
				if snap == nil { // lane has no events at all: hold initial
					v = ps.Initial[i*W+word]&bit != 0
				}
				if v {
					ps.Bits[i][s*W+word] |= bit
				}
			}
		}
	}
	return ps, nil
}
