package stoch

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestPackWaveformsBasic(t *testing.T) {
	// Two inputs, two lanes with different activity.
	lanes := []map[string]*Waveform{
		{
			"a": {Initial: false, Events: []Event{{Time: 1, Value: true}, {Time: 3, Value: false}}},
			"b": {Initial: true},
		},
		{
			"a": {Initial: true},
			"b": {Initial: false, Events: []Event{{Time: 2, Value: true}}},
		},
	}
	ps, err := PackWaveforms([]string{"a", "b"}, lanes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
	if ps.Lanes != 2 || ps.Steps != 2 {
		t.Fatalf("lanes=%d steps=%d, want 2/2", ps.Lanes, ps.Steps)
	}
	// Initial: a = lane1 only (bit 1), b = lane0 only (bit 0).
	if ps.Initial[0] != 0b10 || ps.Initial[1] != 0b01 {
		t.Fatalf("initial = %b/%b", ps.Initial[0], ps.Initial[1])
	}
	// Lane 0 steps: a→1 (t=1), a→0 (t=3). Lane 1 steps: b→1 (t=2) then hold.
	if got := ps.Bits[0][0] & 1; got != 1 { // lane 0, step 0: a=1
		t.Errorf("lane0 step0 a = %d", got)
	}
	if got := ps.Bits[0][1] & 1; got != 0 { // lane 0, step 1: a=0
		t.Errorf("lane0 step1 a = %d", got)
	}
	if got := ps.Bits[1][0] >> 1 & 1; got != 1 { // lane 1, step 0: b=1
		t.Errorf("lane1 step0 b = %d", got)
	}
	if got := ps.Bits[1][1] >> 1 & 1; got != 1 { // lane 1 exhausted: holds b=1
		t.Errorf("lane1 step1 b = %d (hold)", got)
	}
	// Lane 1's a never changes.
	for s := 0; s < ps.Steps; s++ {
		if ps.Bits[0][s]>>1&1 != 1 {
			t.Errorf("lane1 a changed at step %d", s)
		}
	}
}

func TestPackWaveformsGroupsSimultaneousEvents(t *testing.T) {
	// Both inputs switch at t=1 (latched): a zero-delay circuit must see
	// the pair atomically, so the packed stimulus has exactly one step.
	lanes := []map[string]*Waveform{{
		"a": {Initial: false, Events: []Event{{Time: 1, Value: true}}},
		"b": {Initial: false, Events: []Event{{Time: 1, Value: true}}},
	}}
	ps, err := PackWaveforms([]string{"a", "b"}, lanes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Steps != 1 {
		t.Fatalf("steps = %d, want 1 (simultaneous events grouped)", ps.Steps)
	}
	if ps.Bits[0][0]&1 != 1 || ps.Bits[1][0]&1 != 1 {
		t.Error("grouped step lost a value")
	}
}

func TestPackWaveformsDropsBeyondHorizonAndNoOps(t *testing.T) {
	lanes := []map[string]*Waveform{{
		"a": {Initial: true, Events: []Event{
			{Time: 1, Value: true},  // no-op: value unchanged
			{Time: 5, Value: false}, // beyond horizon
		}},
	}}
	ps, err := PackWaveforms([]string{"a"}, lanes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Steps != 0 {
		t.Fatalf("steps = %d, want 0 (no-op and late events dropped)", ps.Steps)
	}
}

func TestPackWaveformsErrors(t *testing.T) {
	if _, err := PackWaveforms([]string{"a"}, nil, 1); err == nil {
		t.Error("zero lanes accepted")
	}
	lanes := make([]map[string]*Waveform, MaxPackLanes+1)
	for i := range lanes {
		lanes[i] = map[string]*Waveform{"a": {}}
	}
	if _, err := PackWaveforms([]string{"a"}, lanes, 1); err == nil {
		t.Errorf("%d lanes accepted", MaxPackLanes+1)
	}
	if _, err := PackWaveforms([]string{"a"}, []map[string]*Waveform{{}}, 1); err == nil {
		t.Error("missing waveform accepted")
	}
	if _, err := PackWaveforms([]string{"a"}, []map[string]*Waveform{{"a": {}}}, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	// An event time the packer cannot order is an error naming its lane
	// and input, wherever it sits: a NaN used to hang the packer.
	for _, tc := range badEventTimes {
		t.Run(tc.name, func(t *testing.T) {
			_, err := PackWaveforms([]string{"a", "b"}, badTimeLanes(tc.time), 10)
			checkBadTimeError(t, err)
		})
	}
}

// badEventTimes are the event times both packers reject.
var badEventTimes = []struct {
	name string
	time float64
}{
	{"NaN", math.NaN()},
	{"+Inf", math.Inf(1)},
	{"-Inf", math.Inf(-1)},
	{"negative", -3e-9},
}

// badTimeLanes is a two-lane block whose lane 1 input "b" carries an
// event at time bad between two good ones.
func badTimeLanes(bad float64) []map[string]*Waveform {
	good := &Waveform{Events: []Event{{Time: 1e-9, Value: true}}}
	return []map[string]*Waveform{
		{"a": good, "b": good},
		{"a": good, "b": {Events: []Event{{Time: 1e-9, Value: true}, {Time: bad, Value: false}, {Time: 5e-9, Value: true}}}},
	}
}

func checkBadTimeError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("bad event time accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "lane 1") || !strings.Contains(msg, `"b"`) {
		t.Fatalf("error %q does not name lane 1 and input \"b\"", msg)
	}
}

func TestLaneMask(t *testing.T) {
	for _, tc := range []struct {
		lanes int
		mask  uint64
	}{{1, 1}, {2, 3}, {63, 1<<63 - 1}, {64, ^uint64(0)}} {
		ps := &PackedStimulus{Block: Block{Lanes: tc.lanes}}
		if got := ps.LaneMask(); got != tc.mask {
			t.Errorf("LaneMask(%d) = %#x, want %#x", tc.lanes, got, tc.mask)
		}
	}
}

func TestLaneMaskOverRange(t *testing.T) {
	// Regression: an out-of-range lane count used to yield a full mask, so
	// a caller that skipped Validate could meter 64 phantom lanes. The mask
	// must agree with Validate: zero whenever Validate would reject.
	for _, tc := range []struct {
		lanes, words int
	}{
		{0, 1}, {-1, 1}, {65, 1}, {1000, 1},
		{0, 4}, {257, 4}, {MaxPackLanes + 1, MaxWords},
	} {
		ps := &PackedStimulus{Block: Block{Lanes: tc.lanes, Words: tc.words}}
		if err := ps.Validate(); err == nil {
			t.Fatalf("Validate accepted %d lanes in %d words", tc.lanes, tc.words)
		}
		for w := 0; w < tc.words; w++ {
			if got := ps.WordMask(w); got != 0 {
				t.Errorf("PackedStimulus{Lanes: %d, Words: %d}.WordMask(%d) = %#x, want 0", tc.lanes, tc.words, w, got)
			}
		}
		ts := &TimedStimulus{Block: Block{Lanes: tc.lanes, Words: tc.words}}
		for w := 0; w < tc.words; w++ {
			if got := ts.WordMask(w); got != 0 {
				t.Errorf("TimedStimulus{Lanes: %d, Words: %d}.WordMask(%d) = %#x, want 0", tc.lanes, tc.words, w, got)
			}
		}
	}
	// Out-of-range word indices of a valid stimulus are also zero.
	ps := &PackedStimulus{Block: Block{Lanes: 200, Words: 4}}
	if ps.WordMask(-1) != 0 || ps.WordMask(4) != 0 {
		t.Errorf("out-of-range word masks = %#x, %#x, want 0", ps.WordMask(-1), ps.WordMask(4))
	}
}

func TestPackWaveformsRoundTripSampling(t *testing.T) {
	// Packed snapshots must agree with ValueAt sampling of the source
	// waveforms between settling instants.
	rng := rand.New(rand.NewSource(9))
	sig := Signal{P: 0.4, D: 1e5}
	const horizon = 1e-4
	lanes := make([]map[string]*Waveform, 8)
	for l := range lanes {
		w, err := sig.Exponential(horizon, rng)
		if err != nil {
			t.Fatal(err)
		}
		lanes[l] = map[string]*Waveform{"x": w}
	}
	ps, err := PackWaveforms([]string{"x"}, lanes, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for l, waves := range lanes {
		w := waves["x"]
		if got := ps.Initial[0]>>l&1 == 1; got != w.Initial {
			t.Fatalf("lane %d initial mismatch", l)
		}
		// The lane's transition count must match the packed row's count.
		trans := 0
		prev := w.Initial
		for s := 0; s < ps.Steps; s++ {
			cur := ps.Bits[0][s]>>l&1 == 1
			if cur != prev {
				trans++
			}
			prev = cur
		}
		if want := w.NumTransitions(horizon); trans != want {
			t.Fatalf("lane %d: packed %d transitions, waveform %d", l, trans, want)
		}
	}
}
