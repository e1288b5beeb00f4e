package stoch

import (
	"fmt"
	"math"
	"sort"
)

// This file packs waveforms for the *timed* bit-parallel simulator. Unlike
// the zero-delay PackedStimulus — whose steps are per-lane settling
// instants with no common clock — a timed simulation needs every lane on
// one shared time axis, because the spacing between input edges and gate
// delays is what creates (or suppresses) glitches. The shared axis is a
// discrete tick grid: event times are snapped to integer multiples of a
// tick, so the timed bit-parallel engine and the reference oracle run on
// exact integer arithmetic and can be compared tick for tick.

// TickEvent is one input change on the discrete tick grid.
type TickEvent struct {
	Tick  int64
	Value bool
}

// TicksIn returns the number of whole ticks that fit in the horizon — the
// last tick at which activity is simulated. The timed engine and the
// reference oracle use this cut-off, which keeps their horizon handling
// identical.
func TicksIn(horizon, tick float64) int64 {
	return int64(horizon / tick)
}

// QuantizeWaveform snaps a waveform to the tick grid: event times round to
// the nearest tick, events beyond horizonTicks are dropped, events landing
// on the same tick collapse to the last value of that tick, and events
// that do not change the running value vanish. The result is a canonical
// tick-domain stimulus — every surviving event is a real transition at a
// strictly increasing tick — consumed identically by the timed
// bit-parallel engine and the reference oracle, which is what makes the
// two comparable lane for lane. Snapping moves each event by at most half a tick (events
// closer together than a tick may merge).
func QuantizeWaveform(w *Waveform, tick float64, horizonTicks int64) []TickEvent {
	var out []TickEvent
	for _, e := range w.Events {
		qt := int64(math.Round(e.Time / tick))
		if qt > horizonTicks {
			break // events are time-ordered; the rest are beyond the horizon too
		}
		if n := len(out); n > 0 && out[n-1].Tick == qt {
			out[n-1].Value = e.Value
			continue
		}
		out = append(out, TickEvent{Tick: qt, Value: e.Value})
	}
	// Drop collapsed no-ops in place (write index never passes read index).
	val := w.Initial
	kept := out[:0]
	for _, te := range out {
		if te.Value != val {
			kept = append(kept, te)
			val = te.Value
		}
	}
	return kept
}

// InputToggle is one packed input change: the named input (by index into
// TimedStimulus.Inputs) flips in the given lanes of block word Word.
// Quantization guarantees every event is a real transition, so a toggle
// mask is exact. Lane l of the stimulus lives in word l/64, bit l%64.
type InputToggle struct {
	Input int32
	Word  int32
	Lanes uint64
}

// TimedStimulus is a bit-packed Monte Carlo stimulus on a shared tick
// grid: up to 64 independent input-vector sequences, one per bit lane, all
// expressed as toggles at integer ticks. Built by PackTimedWaveforms;
// consumed by the timed bit-parallel engine.
//
// When packed with a positive guard, the tick axis is *cluster-aligned*:
// each lane's activity clusters — maximal event runs separated by gaps no
// wider than the guard — are rigidly shifted onto shared slot positions,
// so independent lanes toggle at the same virtual ticks and the word-level
// engine evaluates all of them in one pass. The shift is exact, not an
// approximation: a gap wider than the guard (the circuit's critical-path
// settle window in ticks) means every wave has died and the circuit sits
// in its settled state, and a settled circuit's response is invariant
// under time translation — per-lane transition counts and energies are
// bit-identical to simulating the unshifted waveforms. Virtual ticks may
// therefore exceed HorizonTicks; HorizonTicks records only the admission
// cutoff applied to the original event times.
type TimedStimulus struct {
	Inputs       []string        // primary-input order; Initial is parallel to it
	Lanes        int             // active lanes, 1..Words·64
	Words        int             // register-block width in words; 0 is treated as 1
	Tick         float64         // seconds per tick
	Horizon      float64         // per-lane simulated seconds (power normalization)
	HorizonTicks int64           // input admission cutoff, TicksIn(Horizon, Tick)
	Guard        int64           // settle window used for cluster alignment; 0 = unaligned
	Initial      []uint64        // [input·W + w] lane bits at t=0, before any tick
	Ticks        []int64         // sorted distinct (virtual) ticks with input activity
	Toggles      [][]InputToggle // parallel to Ticks
}

// WordWidth returns the register-block width W in words (≥ 1).
func (ts *TimedStimulus) WordWidth() int {
	if ts.Words < 1 {
		return 1
	}
	return ts.Words
}

// LaneMask returns the mask selecting the active lanes of word 0; 0 for
// an over-range stimulus (see PackedStimulus.LaneMask).
func (ts *TimedStimulus) LaneMask() uint64 { return ts.WordMask(0) }

// WordMask returns the mask selecting the active lanes of block word w,
// 0 for every word when Lanes is outside the range Validate accepts.
func (ts *TimedStimulus) WordMask(w int) uint64 {
	return laneMaskWord(ts.Lanes, ts.WordWidth(), w)
}

// Validate checks structural sanity.
func (ts *TimedStimulus) Validate() error {
	W := ts.WordWidth()
	if W > MaxWords {
		return fmt.Errorf("stoch: %d-word register block wider than %d", W, MaxWords)
	}
	if ts.Lanes < 1 || ts.Lanes > W*MaxLanes {
		return fmt.Errorf("stoch: %d lanes out of [1,%d]", ts.Lanes, W*MaxLanes)
	}
	if ts.Horizon <= 0 || ts.Tick <= 0 {
		return fmt.Errorf("stoch: timed stimulus needs positive horizon and tick, got %v/%v", ts.Horizon, ts.Tick)
	}
	if len(ts.Initial) != len(ts.Inputs)*W {
		return fmt.Errorf("stoch: timed stimulus shape mismatch: %d inputs × %d words, %d initial rows", len(ts.Inputs), W, len(ts.Initial))
	}
	if len(ts.Toggles) != len(ts.Ticks) {
		return fmt.Errorf("stoch: %d toggle groups for %d ticks", len(ts.Toggles), len(ts.Ticks))
	}
	if ts.Guard < 0 {
		return fmt.Errorf("stoch: negative guard %d", ts.Guard)
	}
	prev := int64(-1)
	for k, tk := range ts.Ticks {
		if tk <= prev {
			return fmt.Errorf("stoch: ticks not strictly increasing at index %d", k)
		}
		if tk < 0 {
			return fmt.Errorf("stoch: negative tick %d", tk)
		}
		prev = tk
		for _, tg := range ts.Toggles[k] {
			if int(tg.Input) < 0 || int(tg.Input) >= len(ts.Inputs) {
				return fmt.Errorf("stoch: toggle names input %d of %d", tg.Input, len(ts.Inputs))
			}
			if int(tg.Word) < 0 || int(tg.Word) >= W {
				return fmt.Errorf("stoch: toggle of input %d names word %d of %d", tg.Input, tg.Word, W)
			}
			if tg.Lanes&^ts.WordMask(int(tg.Word)) != 0 {
				return fmt.Errorf("stoch: toggle of input %d touches inactive lanes", tg.Input)
			}
		}
	}
	return nil
}

// timedEvent is one quantized input change of one lane during packing.
type timedEvent struct {
	tick  int64
	input int32
	lane  int
}

// PackTimedWaveforms quantizes per-lane waveform sets onto the tick grid
// and bit-packs them: lanes[l] maps every input name to that lane's
// waveform (the shape GenerateWaveforms in package sim produces). Each
// waveform is snapped with QuantizeWaveform — at most half a tick of skew
// per event, events beyond the horizon dropped — and the surviving
// transitions of all lanes are merged onto one shared, sorted tick axis
// as per-input toggle masks.
//
// guard > 0 enables cluster alignment (see TimedStimulus): per lane,
// consecutive events further apart than guard ticks start a new cluster;
// the j-th clusters of all lanes are rigidly shifted to one shared slot
// start, preserving every intra-cluster offset. Pass the consuming
// program's settle window (TimedProgram.SettleTicks) as the guard; 0
// packs the original axis unchanged.
func PackTimedWaveforms(inputs []string, lanes []map[string]*Waveform, horizon, tick float64, guard int64) (*TimedStimulus, error) {
	if len(lanes) < 1 || len(lanes) > MaxPackLanes {
		return nil, fmt.Errorf("stoch: %d lanes out of [1,%d]", len(lanes), MaxPackLanes)
	}
	if horizon <= 0 || tick <= 0 {
		return nil, fmt.Errorf("stoch: timed packing needs positive horizon and tick, got %v/%v", horizon, tick)
	}
	if guard < 0 {
		return nil, fmt.Errorf("stoch: negative guard %d", guard)
	}
	W := WordsFor(len(lanes))
	ts := &TimedStimulus{
		Inputs:       append([]string(nil), inputs...),
		Lanes:        len(lanes),
		Words:        W,
		Tick:         tick,
		Horizon:      horizon,
		HorizonTicks: TicksIn(horizon, tick),
		Guard:        guard,
		Initial:      make([]uint64, len(inputs)*W),
	}
	perLane := make([][]timedEvent, len(lanes))
	for l, waves := range lanes {
		for i, in := range inputs {
			w, ok := waves[in]
			if !ok {
				return nil, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			if w.Initial {
				ts.Initial[i*W+l/MaxLanes] |= 1 << uint(l%MaxLanes)
			}
			for _, te := range QuantizeWaveform(w, tick, ts.HorizonTicks) {
				perLane[l] = append(perLane[l], timedEvent{tick: te.Tick, input: int32(i), lane: l})
			}
		}
		sort.SliceStable(perLane[l], func(a, b int) bool { return perLane[l][a].tick < perLane[l][b].tick })
	}
	if guard > 0 {
		alignClusters(perLane, guard)
	}
	var evs []timedEvent
	for _, le := range perLane {
		evs = append(evs, le...)
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].tick != evs[b].tick {
			return evs[a].tick < evs[b].tick
		}
		if evs[a].input != evs[b].input {
			return evs[a].input < evs[b].input
		}
		return evs[a].lane < evs[b].lane
	})
	for k := 0; k < len(evs); {
		t := evs[k].tick
		var group []InputToggle
		for k < len(evs) && evs[k].tick == t {
			in := evs[k].input
			// Lanes are sorted within (tick, input), so each block word's
			// toggle mask assembles in one contiguous run.
			for k < len(evs) && evs[k].tick == t && evs[k].input == in {
				word := int32(evs[k].lane / MaxLanes)
				var mask uint64
				for ; k < len(evs) && evs[k].tick == t && evs[k].input == in && int32(evs[k].lane/MaxLanes) == word; k++ {
					mask |= 1 << uint(evs[k].lane%MaxLanes)
				}
				group = append(group, InputToggle{Input: in, Word: word, Lanes: mask})
			}
		}
		ts.Ticks = append(ts.Ticks, t)
		ts.Toggles = append(ts.Toggles, group)
	}
	return ts, nil
}

// laneCluster is one maximal activity run of a lane during alignment.
type laneCluster struct {
	start, end int // event index range [start, end) in the lane's slice
	tick       int64
	span       int64
}

// alignClusters rigidly shifts each lane's activity clusters onto shared
// slot positions (in place). Slot j spans the widest j-th cluster of any
// lane plus a guard of quiet ticks, so shifted clusters never move closer
// than the guard to each other within a lane — the condition that keeps
// the shift exactly equivalence-preserving.
func alignClusters(perLane [][]timedEvent, guard int64) {
	clusters := make([][]laneCluster, len(perLane))
	maxClusters := 0
	for l, evs := range perLane {
		for k := 0; k < len(evs); {
			c := laneCluster{start: k, tick: evs[k].tick}
			last := evs[k].tick
			for k++; k < len(evs) && evs[k].tick-last <= guard; k++ {
				last = evs[k].tick
			}
			c.end = k
			c.span = last - c.tick
			clusters[l] = append(clusters[l], c)
		}
		if len(clusters[l]) > maxClusters {
			maxClusters = len(clusters[l])
		}
	}
	slotStart := int64(0)
	for j := 0; j < maxClusters; j++ {
		width := int64(0)
		for l := range clusters {
			if j < len(clusters[l]) && clusters[l][j].span > width {
				width = clusters[l][j].span
			}
		}
		for l := range clusters {
			if j >= len(clusters[l]) {
				continue
			}
			c := clusters[l][j]
			shift := slotStart - c.tick
			for k := c.start; k < c.end; k++ {
				perLane[l][k].tick += shift
			}
		}
		slotStart += width + guard + 1
	}
}
