package stoch

import (
	"fmt"
	"math"
	"sync"
)

// WaveBuffer is one register block's per-lane waveforms, indexed by lane
// and input instead of by name: lane l's waveform for input i is an
// initial value and a time-ordered run of Events, and every run lies in
// one shared event buffer. Generators append a lane's waveforms in input
// order (Signal.AppendExponential, Signal.AppendClocked, AppendWaveform)
// and close the lane with EndLane; both packers (Pack and PackTimed) read
// the block by index.
//
// A WaveBuffer also owns the stimulus its packers return. Reset starts the
// next block and keeps every array, so a buffer reused block after block
// stops allocating once it has grown to the largest block it holds.
type WaveBuffer struct {
	inputs  int     // waveforms per lane
	lanes   int     // lanes closed by EndLane
	initial []bool  // [l·inputs + i] value at t=0
	end     []int   // [l·inputs + i] end of the waveform's run in events; it starts where the previous one ends
	events  []Event // every waveform's events, lane-major, input order within a lane

	packed  PackedStimulus
	timed   TimedStimulus
	toggles []InputToggle // backing array of timed.Toggles
}

// Reset empties the buffer for a block of lanes with the given number of
// inputs. Stimulus the buffer packed before is overwritten by its next
// pack.
func (b *WaveBuffer) Reset(inputs int) {
	b.inputs, b.lanes = inputs, 0
	b.initial, b.end, b.events = b.initial[:0], b.end[:0], b.events[:0]
}

// Wave returns lane l's waveform for input i: its initial value and its
// events, a view into the buffer that is valid until the next Reset.
func (b *WaveBuffer) Wave(l, i int) (initial bool, events []Event) {
	k := l*b.inputs + i
	return b.initial[k], b.events[b.start(k):b.end[k]:b.end[k]]
}

// start returns where waveform k's run starts in events: where the
// previous waveform's ends.
func (b *WaveBuffer) start(k int) int {
	if k == 0 {
		return 0
	}
	return b.end[k-1]
}

// AppendWaveform copies w in as the next waveform of the open lane.
func (b *WaveBuffer) AppendWaveform(w *Waveform) {
	b.push(w.Initial, append(b.events, w.Events...))
}

// push records the next waveform: its initial value, and the event
// buffer with its events appended.
func (b *WaveBuffer) push(initial bool, events []Event) {
	b.events = events
	b.initial = append(b.initial, initial)
	b.end = append(b.end, len(events))
}

// EndLane closes the open lane, which must hold exactly one waveform per
// input.
func (b *WaveBuffer) EndLane() error {
	if got := len(b.end) - b.lanes*b.inputs; got != b.inputs {
		return fmt.Errorf("stoch: lane %d has %d waveforms for %d inputs", b.lanes, got, b.inputs)
	}
	b.lanes++
	return nil
}

// waveBufferOf copies per-lane waveform maps into a new buffer in the
// given input order: the front end of PackWaveforms and
// PackTimedWaveforms. It rejects a lane count out of range and a missing
// waveform, naming the lane and the input.
func waveBufferOf(inputs []string, lanes []map[string]*Waveform) (*WaveBuffer, error) {
	if err := checkLanes(len(lanes)); err != nil {
		return nil, err
	}
	b := new(WaveBuffer)
	b.Reset(len(inputs))
	for l, lw := range lanes {
		for _, in := range inputs {
			w, ok := lw[in]
			if !ok {
				return nil, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			b.AppendWaveform(w)
		}
		if err := b.EndLane(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func checkLanes(lanes int) error {
	if lanes < 1 || lanes > MaxPackLanes {
		return fmt.Errorf("stoch: %d lanes out of [1,%d]", lanes, MaxPackLanes)
	}
	return nil
}

// header is both packers' front end. It checks the lane count, the
// horizon and the input names against the buffer, rejects an event time
// that is NaN, infinite or negative, naming the lane and the input, and
// fills dst for the buffer's lanes: a register block of
// WordsFor(lanes) words with each lane's initial bits set. dst's arrays
// are reused.
func (b *WaveBuffer) header(dst *Block, inputs []string, horizon float64) error {
	if err := checkLanes(b.lanes); err != nil {
		return err
	}
	if !positiveFinite(horizon) {
		return fmt.Errorf("stoch: packed horizon %v must be positive and finite", horizon)
	}
	if len(inputs) != b.inputs {
		return fmt.Errorf("stoch: %d input names for waveforms of %d inputs", len(inputs), b.inputs)
	}
	waves := b.lanes * b.inputs
	for k, e := range b.events[:b.start(waves)] {
		if !(e.Time >= 0) || math.IsInf(e.Time, 1) {
			l, i := b.waveOf(k)
			return fmt.Errorf("stoch: lane %d input %q: event time %v is not finite and non-negative", l, inputs[i], e.Time)
		}
	}
	W := WordsFor(b.lanes)
	*dst = Block{
		Inputs:  append(dst.Inputs[:0], inputs...),
		Lanes:   b.lanes,
		Words:   W,
		Horizon: horizon,
		Initial: zeroed(dst.Initial, len(inputs)*W),
	}
	for k, v := range b.initial[:waves] {
		if v {
			l, i := k/b.inputs, k%b.inputs
			dst.Initial[i*W+l/MaxLanes] |= 1 << uint(l%MaxLanes)
		}
	}
	return nil
}

// waveOf returns the lane and input of the waveform holding event k.
func (b *WaveBuffer) waveOf(k int) (l, i int) {
	w := 0
	for b.end[w] <= k {
		w++
	}
	return w / b.inputs, w % b.inputs
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough; never nil.
func zeroed[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// packScratch is the packers' working memory: dead once a pack returns,
// so one package-level pool serves every buffer and goroutine.
type packScratch struct {
	evs, tmp []timedEvent
	perLane  [][]timedEvent
	q        []TickEvent
	pos      []int // byInput's counts
	counts   []int // sortByTick's counting pass
	clusters []laneCluster
	bounds   []int  // lane l's clusters are clusters[bounds[l]:bounds[l+1]]
	runs     []int  // PackWaveforms' run starts
	val      []bool // PackWaveforms' running input values
}

var packPool = sync.Pool{New: func() any { return new(packScratch) }}
