package stoch

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

func TestQuantizeWaveform(t *testing.T) {
	const tick = 1e-9
	w := &Waveform{Initial: false, Events: []Event{
		{Time: 1.4e-9, Value: true},  // → tick 1
		{Time: 1.6e-9, Value: false}, // → tick 2... but see below
		{Time: 2.4e-9, Value: true},  // → tick 2: collapses with previous, last value wins
		{Time: 5.0e-9, Value: true},  // no-op: value already true
		{Time: 8.6e-9, Value: false}, // → tick 9
		{Time: 12e-9, Value: true},   // beyond horizon (10 ticks): dropped
	}}
	got := QuantizeWaveform(w, tick, 10)
	want := []TickEvent{{1, true}, {9, false}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Ticks strictly increase and every event changes the value.
	val := w.Initial
	last := int64(-1)
	for _, te := range got {
		if te.Tick <= last {
			t.Fatalf("non-increasing tick %d", te.Tick)
		}
		if te.Value == val {
			t.Fatalf("no-op event survived at tick %d", te.Tick)
		}
		last, val = te.Tick, te.Value
	}
}

func TestQuantizeWaveformCollapseToNoOp(t *testing.T) {
	// Two sub-tick pulses collapse onto one tick and cancel entirely.
	const tick = 1e-9
	w := &Waveform{Initial: true, Events: []Event{
		{Time: 3.1e-9, Value: false},
		{Time: 3.3e-9, Value: true},
	}}
	if got := QuantizeWaveform(w, tick, 100); len(got) != 0 {
		t.Fatalf("collapsed pulse survived: %v", got)
	}
}

func TestPackTimedWaveformsTogglesMatchValueAt(t *testing.T) {
	// Reconstructing each lane from Initial + toggles must reproduce the
	// quantized waveform's final value and transition count.
	rng := rand.New(rand.NewSource(12))
	sig := Signal{P: 0.4, D: 3e5}
	const horizon = 1e-4
	const tick = 1e-9
	lanes := make([]map[string]*Waveform, 7)
	for l := range lanes {
		w, err := sig.Exponential(horizon, rng)
		if err != nil {
			t.Fatal(err)
		}
		lanes[l] = map[string]*Waveform{"x": w}
	}
	ts, err := PackTimedWaveforms([]string{"x"}, lanes, horizon, tick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	for l, waves := range lanes {
		w := waves["x"]
		q := QuantizeWaveform(w, tick, ts.HorizonTicks)
		val := ts.Initial[0]>>l&1 == 1
		if val != w.Initial {
			t.Fatalf("lane %d initial mismatch", l)
		}
		trans := 0
		qi := 0
		for k := range ts.Ticks {
			for _, tog := range ts.Toggles[k] {
				if tog.Input != 0 || tog.Lanes>>l&1 == 0 {
					continue
				}
				val = !val
				trans++
				if qi >= len(q) || q[qi].Tick != ts.Ticks[k] || q[qi].Value != val {
					t.Fatalf("lane %d: toggle at tick %d diverges from quantized waveform", l, ts.Ticks[k])
				}
				qi++
			}
		}
		if trans != len(q) {
			t.Fatalf("lane %d: %d toggles, quantized waveform has %d transitions", l, trans, len(q))
		}
	}
}

func TestPackTimedWaveformsErrors(t *testing.T) {
	w := map[string]*Waveform{"a": {}}
	if _, err := PackTimedWaveforms([]string{"a"}, nil, 1, 1e-9, 0); err == nil {
		t.Error("zero lanes accepted")
	}
	many := make([]map[string]*Waveform, MaxPackLanes+1)
	for i := range many {
		many[i] = w
	}
	if _, err := PackTimedWaveforms([]string{"a"}, many, 1, 1e-9, 0); err == nil {
		t.Errorf("%d lanes accepted", MaxPackLanes+1)
	}
	if _, err := PackTimedWaveforms([]string{"a"}, []map[string]*Waveform{{}}, 1, 1e-9, 0); err == nil {
		t.Error("missing waveform accepted")
	}
	if _, err := PackTimedWaveforms([]string{"a"}, []map[string]*Waveform{w}, 0, 1e-9, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := PackTimedWaveforms([]string{"a"}, []map[string]*Waveform{w}, 1, 0, 0); err == nil {
		t.Error("zero tick accepted")
	}
	// Before quantization, so with or without alignment: a negative time
	// used to land on tick 0 under a guard and a NaN on tick MinInt64.
	for _, tc := range badEventTimes {
		for _, guard := range []int64{0, 5} {
			t.Run(fmt.Sprintf("%s/guard=%d", tc.name, guard), func(t *testing.T) {
				_, err := PackTimedWaveforms([]string{"a", "b"}, badTimeLanes(tc.time), 1e-8, 1e-9, guard)
				checkBadTimeError(t, err)
			})
		}
	}
}

func TestTimedStimulusValidateNegativeTick(t *testing.T) {
	ts := &TimedStimulus{
		Block:        Block{Inputs: []string{"a"}, Lanes: 1, Horizon: 1e-8, Initial: []uint64{0}},
		Tick:         1e-9,
		HorizonTicks: 10,
		Ticks:        []int64{-3, 5},
		Toggles:      [][]InputToggle{{{Lanes: 1}}, {{Lanes: 1}}},
	}
	err := ts.Validate()
	if err == nil || !strings.Contains(err.Error(), "negative tick -3") {
		t.Fatalf("Validate() = %v, want a negative-tick error", err)
	}
}

// TestHorizonTicksOverflow: a horizon of more than 2^63 ticks used to
// convert to HorizonTicks = MinInt64, so the packer admitted no event and
// returned no error. The packer must reject such a ratio, finite or not,
// and Validate must reject a negative tick horizon.
func TestHorizonTicksOverflow(t *testing.T) {
	in, lanes := []string{"a"}, []map[string]*Waveform{{"a": {Events: []Event{{Time: 1, Value: true}}}}}
	for _, tc := range []struct{ horizon, tick float64 }{
		{1e300, 1e-300}, // ratio +Inf
		{1e10, 1e-10},   // ratio 1e20, finite but beyond int64
		{0x1p63, 1},
	} {
		ts, err := PackTimedWaveforms(in, lanes, tc.horizon, tc.tick, 0)
		if err == nil {
			t.Errorf("horizon %v, tick %v accepted: HorizonTicks = %d, %d ticks", tc.horizon, tc.tick, ts.HorizonTicks, len(ts.Ticks))
		}
	}
	// A horizon of 2^62 ticks still fits.
	ts, err := PackTimedWaveforms(in, lanes, 0x1p62, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.HorizonTicks != 1<<62 || len(ts.Ticks) != 1 {
		t.Fatalf("HorizonTicks = %d with %d ticks, want 2^62 with 1", ts.HorizonTicks, len(ts.Ticks))
	}
	ts.HorizonTicks = -1
	if err := ts.Validate(); err == nil || !strings.Contains(err.Error(), "negative horizon") {
		t.Fatalf("Validate() = %v, want a negative-horizon error", err)
	}
}

// --- PackWaveforms (zero-delay packing) edge cases ---

func TestPackWaveformsSimultaneousAtHorizonBoundary(t *testing.T) {
	// Both lanes fire events at exactly t == horizon (kept: only events
	// strictly beyond the horizon drop) and one of them pairs the
	// boundary event with a second input switching at the same instant —
	// the step must stay grouped.
	const horizon = 2.0
	lanes := []map[string]*Waveform{
		{
			"a": {Initial: false, Events: []Event{{Time: horizon, Value: true}}},
			"b": {Initial: false, Events: []Event{{Time: horizon, Value: true}}},
		},
		{
			"a": {Initial: false, Events: []Event{{Time: horizon, Value: true}}},
			"b": {Initial: true},
		},
	}
	ps, err := PackWaveforms([]string{"a", "b"}, lanes, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Steps != 1 {
		t.Fatalf("steps = %d, want 1 (boundary events grouped per lane)", ps.Steps)
	}
	if ps.Bits[0][0]&0b11 != 0b11 {
		t.Errorf("a not set in both lanes at the boundary step: %b", ps.Bits[0][0])
	}
	if ps.Bits[1][0]&0b01 != 0b01 {
		t.Errorf("lane 0 lost b's boundary event: %b", ps.Bits[1][0])
	}
	// Just beyond the horizon, the same events must vanish.
	late := []map[string]*Waveform{{
		"a": {Initial: false, Events: []Event{{Time: horizon * (1 + 1e-9), Value: true}}},
		"b": {Initial: false},
	}}
	ps2, err := PackWaveforms([]string{"a", "b"}, late, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if ps2.Steps != 0 {
		t.Fatalf("event beyond the horizon produced %d steps", ps2.Steps)
	}
}

func TestPackWaveformsEmptyWaveformLane(t *testing.T) {
	// Lane 1 has no events at all: it must hold its initial values across
	// every step the busier lane creates.
	lanes := []map[string]*Waveform{
		{
			"a": {Initial: false, Events: []Event{
				{Time: 1, Value: true}, {Time: 2, Value: false}, {Time: 3, Value: true},
			}},
			"b": {Initial: false},
		},
		{
			"a": {Initial: true},
			"b": {Initial: true},
		},
	}
	ps, err := PackWaveforms([]string{"a", "b"}, lanes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Steps != 3 {
		t.Fatalf("steps = %d, want 3", ps.Steps)
	}
	for s := 0; s < ps.Steps; s++ {
		if ps.Bits[0][s]>>1&1 != 1 || ps.Bits[1][s]>>1&1 != 1 {
			t.Fatalf("empty lane drifted from its initial state at step %d", s)
		}
	}
}

func TestPackWaveformsLaneCapacity(t *testing.T) {
	// Exactly MaxPackLanes is accepted; one more is rejected. One lane past
	// a word boundary grows the block by a word with a 1-bit top mask.
	mk := func(n int) []map[string]*Waveform {
		lanes := make([]map[string]*Waveform, n)
		for i := range lanes {
			lanes[i] = map[string]*Waveform{"a": {Initial: i%2 == 0}}
		}
		return lanes
	}
	ps, err := PackWaveforms([]string{"a"}, mk(MaxLanes), 1)
	if err != nil {
		t.Fatalf("%d lanes rejected: %v", MaxLanes, err)
	}
	if ps.Lanes != MaxLanes || ps.Words != 1 || ps.LaneMask() != ^uint64(0) {
		t.Fatalf("lanes=%d words=%d mask=%#x", ps.Lanes, ps.Words, ps.LaneMask())
	}
	ps, err = PackWaveforms([]string{"a"}, mk(MaxLanes+1), 1)
	if err != nil {
		t.Fatalf("%d lanes rejected: %v", MaxLanes+1, err)
	}
	if ps.Lanes != MaxLanes+1 || ps.Words != 2 || ps.WordMask(0) != ^uint64(0) || ps.WordMask(1) != 1 {
		t.Fatalf("lanes=%d words=%d masks=%#x,%#x", ps.Lanes, ps.Words, ps.WordMask(0), ps.WordMask(1))
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("two-word stimulus invalid: %v", err)
	}
	wide, err := PackWaveforms([]string{"a"}, mk(MaxPackLanes), 1)
	if err != nil {
		t.Fatalf("%d lanes rejected: %v", MaxPackLanes, err)
	}
	if wide.Words != MaxWords || wide.WordMask(MaxWords-1) != ^uint64(0) {
		t.Fatalf("words=%d top mask=%#x", wide.Words, wide.WordMask(MaxWords-1))
	}
	if _, err := PackWaveforms([]string{"a"}, mk(MaxPackLanes+1), 1); err == nil {
		t.Fatalf("%d lanes accepted", MaxPackLanes+1)
	}
}

func TestLaneMaskPopcountMatchesLanes(t *testing.T) {
	// The mask must select exactly the active lanes for every lane count,
	// in both stimulus formats — the invariant the engines' metering
	// relies on.
	for n := 1; n <= MaxLanes; n++ {
		ps := &PackedStimulus{Block: Block{Lanes: n}}
		if got := bits.OnesCount64(ps.LaneMask()); got != n {
			t.Fatalf("PackedStimulus.LaneMask(%d) selects %d lanes", n, got)
		}
		ts := &TimedStimulus{Block: Block{Lanes: n}}
		if got := bits.OnesCount64(ts.LaneMask()); got != n {
			t.Fatalf("TimedStimulus.LaneMask(%d) selects %d lanes", n, got)
		}
	}
}

// TestQuantizeWaveformZeroLength: the timed-engine edge cases found while
// seeding the oracle harness — an event-free waveform must quantize to an
// empty stimulus for any tick and horizon, including a zero-tick horizon.
func TestQuantizeWaveformZeroLength(t *testing.T) {
	for _, initial := range []bool{false, true} {
		w := &Waveform{Initial: initial}
		for _, horizonTicks := range []int64{0, 1, 1000} {
			if got := QuantizeWaveform(w, 1e-9, horizonTicks); len(got) != 0 {
				t.Fatalf("initial=%v horizon=%d: empty waveform produced %v", initial, horizonTicks, got)
			}
		}
	}
}

// TestQuantizeWaveformSingleTransition pins the rounding, admission and
// no-op rules on a waveform with exactly one event.
func TestQuantizeWaveformSingleTransition(t *testing.T) {
	const tick = 1e-9
	cases := []struct {
		name         string
		initial      bool
		ev           Event
		horizonTicks int64
		want         []TickEvent
	}{
		{"rounds down", false, Event{Time: 5.4e-9, Value: true}, 10,
			[]TickEvent{{Tick: 5, Value: true}}},
		{"rounds up", false, Event{Time: 5.6e-9, Value: true}, 10,
			[]TickEvent{{Tick: 6, Value: true}}},
		{"sub-half-tick event lands on tick zero", false, Event{Time: 0.4e-9, Value: true}, 10,
			[]TickEvent{{Tick: 0, Value: true}}},
		{"exactly at horizon admitted", false, Event{Time: 10e-9, Value: true}, 10,
			[]TickEvent{{Tick: 10, Value: true}}},
		{"rounds past horizon dropped", false, Event{Time: 10.6e-9, Value: true}, 10, nil},
		{"beyond horizon dropped", false, Event{Time: 50e-9, Value: true}, 10, nil},
		{"beyond int64 ticks dropped", false, Event{Time: 1e300, Value: true}, 10, nil},
		{"no-op transition vanishes", true, Event{Time: 5e-9, Value: true}, 10, nil},
		{"zero-tick horizon keeps only tick-zero events", false, Event{Time: 0.3e-9, Value: true}, 0,
			[]TickEvent{{Tick: 0, Value: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &Waveform{Initial: tc.initial, Events: []Event{tc.ev}}
			got := QuantizeWaveform(w, tick, tc.horizonTicks)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("event %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestNonFiniteHorizonsRejected: every entry point that takes a horizon
// or a tick rejects NaN and ±Inf. A NaN fails every comparison, so a bare
// horizon <= 0 check accepted it: Exponential then drew events without
// end, and PackTimedWaveforms cut admission at tick MinInt64, silently
// dropping every event.
func TestNonFiniteHorizonsRejected(t *testing.T) {
	in, lanes := []string{"a"}, []map[string]*Waveform{{"a": {Events: []Event{{Time: 1e-9, Value: true}}}}}
	ps, err := PackWaveforms(in, lanes, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := PackTimedWaveforms(in, lanes, 1e-8, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			name string
			run  func() error
		}{
			{"Exponential", func() error {
				_, err := (Signal{P: 0.5, D: 1e6}).Exponential(bad, rand.New(rand.NewSource(1)))
				return err
			}},
			{"PackWaveforms", func() error { _, err := PackWaveforms(in, lanes, bad); return err }},
			{"PackTimedWaveforms", func() error { _, err := PackTimedWaveforms(in, lanes, bad, 1e-9, 0); return err }},
			{"PackTimedWaveforms/tick", func() error { _, err := PackTimedWaveforms(in, lanes, 1e-8, bad, 0); return err }},
			{"PackedStimulus.Validate", func() error { c := *ps; c.Horizon = bad; return c.Validate() }},
			{"TimedStimulus.Validate", func() error { c := *ts; c.Horizon = bad; return c.Validate() }},
			{"TimedStimulus.Validate/tick", func() error { c := *ts; c.Tick = bad; return c.Validate() }},
		} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, bad), func(t *testing.T) {
				if err := tc.run(); err == nil {
					t.Fatalf("%v accepted", bad)
				}
			})
		}
	}
}
