package stoch

import (
	"fmt"
	"sort"
)

// The two packers as they were first written, with comparison sorts and
// per-step snapshots: deliberately naive references that
// TestPackMatchesReference holds the production packers to, stimulus for
// stimulus. Apart from the zero-delay event type's name and the timed
// event's narrower lane field, the bodies are unchanged.

// refPackedEvent is one input change of one lane during reference packing.
type refPackedEvent struct {
	time  float64
	input int
	value bool
}

// referencePackWaveforms is the reference for PackWaveforms.
func referencePackWaveforms(inputs []string, lanes []map[string]*Waveform, horizon float64) (*PackedStimulus, error) {
	if len(lanes) < 1 || len(lanes) > MaxPackLanes {
		return nil, fmt.Errorf("stoch: %d lanes out of [1,%d]", len(lanes), MaxPackLanes)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("stoch: packed horizon %v must be positive", horizon)
	}
	W := WordsFor(len(lanes))
	ps := &PackedStimulus{Block: Block{
		Inputs:  append([]string(nil), inputs...),
		Lanes:   len(lanes),
		Words:   W,
		Horizon: horizon,
		Initial: make([]uint64, len(inputs)*W),
	}}
	// Per lane: the sequence of input-state snapshots, one per instant at
	// which at least one input actually changes.
	snapshots := make([][][]bool, len(lanes))
	for l, waves := range lanes {
		state := make([]bool, len(inputs))
		var evs []refPackedEvent
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
				evs = append(evs, refPackedEvent{time: e.Time, input: i, value: e.Value})
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

// referencePackTimedWaveforms is the reference for PackTimedWaveforms.
// It shares timedEvent and alignClusters with the production packer.
func referencePackTimedWaveforms(inputs []string, lanes []map[string]*Waveform, horizon, tick float64, guard int64) (*TimedStimulus, error) {
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
		Block: Block{
			Inputs:  append([]string(nil), inputs...),
			Lanes:   len(lanes),
			Words:   W,
			Horizon: horizon,
			Initial: make([]uint64, len(inputs)*W),
		},
		Tick:         tick,
		HorizonTicks: TicksIn(horizon, tick),
		Guard:        guard,
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
				perLane[l] = append(perLane[l], timedEvent{tick: te.Tick, input: int32(i), lane: int32(l)})
			}
		}
		sort.SliceStable(perLane[l], func(a, b int) bool { return perLane[l][a].tick < perLane[l][b].tick })
	}
	if guard > 0 {
		new(packScratch).alignClusters(perLane, guard)
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
