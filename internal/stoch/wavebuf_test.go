package stoch

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestAppendDrawsMatchWaveforms: the append forms draw what Exponential
// and Clocked return from an equally seeded rng, waveform for waveform,
// into consecutive runs of one buffer, and an error appends nothing.
func TestAppendDrawsMatchWaveforms(t *testing.T) {
	sigs := []Signal{{P: 0.5, D: 2e6}, {P: 0.2, D: 5e5}, {P: 0.5, D: 0}, {P: 1, D: 1e6}}
	clocked := []Signal{{P: 0.5, D: 0.5}, {P: 0.3, D: 0.4}, {P: 0.5, D: 0}, {P: 0.6, D: 0.8}}
	const horizon, cycles, cycle = 1e-5, 40, 1e-7
	var b WaveBuffer
	b.Reset(len(sigs))
	got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	var wants []*Waveform
	for range 3 {
		for _, s := range sigs {
			if err := s.AppendExponential(&b, horizon, got); err != nil {
				t.Fatal(err)
			}
			w, err := s.Exponential(horizon, want)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, w)
		}
		if err := b.EndLane(); err != nil {
			t.Fatal(err)
		}
		for _, s := range clocked {
			if err := s.AppendClocked(&b, cycles, cycle, got); err != nil {
				t.Fatal(err)
			}
			w, err := s.Clocked(cycles, cycle, want)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, w)
		}
		if err := b.EndLane(); err != nil {
			t.Fatal(err)
		}
	}
	if b.lanes != 6 || b.inputs != len(sigs) {
		t.Fatalf("%d lanes of %d inputs, want 6 of %d", b.lanes, b.inputs, len(sigs))
	}
	for k, w := range wants {
		initial, events := b.Wave(k/len(sigs), k%len(sigs))
		if initial != w.Initial || !slices.Equal(events, w.Events) {
			t.Fatalf("waveform %d: appended %v %v, returned %v %v", k, initial, events, w.Initial, w.Events)
		}
	}
	// A rejected draw leaves the buffer as it was.
	before := b.events
	if err := (Signal{P: 0.5, D: 0.5}).AppendClocked(&b, 4, 0, got); err == nil {
		t.Fatal("zero cycle accepted")
	}
	if err := (Signal{P: 0.5, D: 1}).AppendExponential(&b, -1, got); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if len(b.events) != len(before) || len(b.end) != 6*len(sigs) {
		t.Fatalf("rejected draws appended: %d events, %d waveforms", len(b.events), len(b.end))
	}
}

// TestWaveBufferShape: a lane must hold one waveform per input, and a
// pack must name as many inputs as the buffer holds.
func TestWaveBufferShape(t *testing.T) {
	var b WaveBuffer
	b.Reset(2)
	b.AppendWaveform(&Waveform{Initial: true})
	if err := b.EndLane(); err == nil || !strings.Contains(err.Error(), "lane 0 has 1 waveforms for 2 inputs") {
		t.Fatalf("short lane: %v", err)
	}
	b.AppendWaveform(&Waveform{Events: []Event{{Time: 1e-9, Value: true}}})
	if err := b.EndLane(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Pack([]string{"a"}, 1e-8); err == nil {
		t.Error("Pack accepted one input name for two inputs")
	}
	if _, err := b.PackTimed([]string{"a", "b", "c"}, 1e-8, 1e-9, 0); err == nil {
		t.Error("PackTimed accepted three input names for two inputs")
	}
	var empty WaveBuffer
	empty.Reset(1)
	if _, err := empty.Pack([]string{"a"}, 1e-8); err == nil || !strings.Contains(err.Error(), "0 lanes") {
		t.Errorf("Pack of no lanes: %v", err)
	}
	// An open lane's waveforms are not packed: the stimulus is the closed
	// lanes' alone.
	b.AppendWaveform(&Waveform{Initial: true, Events: []Event{{Time: -1, Value: false}}})
	ps, err := b.Pack([]string{"a", "b"}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PackWaveforms([]string{"a", "b"}, []map[string]*Waveform{
		{"a": {Initial: true}, "b": {Events: []Event{{Time: 1e-9, Value: true}}}},
	}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("packed %+v, want %+v", ps, want)
	}
}

// TestWaveBufferBadTime: the indexed packers reject a bad event time the
// way the map adapters do, naming the lane and the input.
func TestWaveBufferBadTime(t *testing.T) {
	inputs := []string{"a", "b"}
	for _, tc := range badEventTimes {
		t.Run(tc.name, func(t *testing.T) {
			var b WaveBuffer
			fillBuffer(&b, inputs, badTimeLanes(tc.time))
			_, err := b.Pack(inputs, 1e-8)
			checkBadTimeError(t, err)
			_, err = b.PackTimed(inputs, 1e-8, 1e-9, 2)
			checkBadTimeError(t, err)
		})
	}
}
