package stoch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		s  Signal
		ok bool
	}{
		{Signal{P: 0.5, D: 1e6}, true},
		{Signal{P: 0, D: 0}, true},
		{Signal{P: 1, D: 0}, true},
		{Signal{P: -0.1, D: 0}, false},
		{Signal{P: 1.1, D: 0}, false},
		{Signal{P: 0.5, D: -1}, false},
		{Signal{P: math.NaN(), D: 1}, false},
		{Signal{P: 0.5, D: math.NaN()}, false},
		{Signal{P: 0.5, D: math.Inf(1)}, false}, // Exponential would never return
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) error = %v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestExponentialStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []Signal{
		{P: 0.5, D: 1e6},
		{P: 0.2, D: 1e5},
		{P: 0.8, D: 5e5},
	}
	horizon := 2e-3 // long enough for thousands of transitions
	for _, s := range cases {
		w, err := s.Exponential(horizon, rng)
		if err != nil {
			t.Fatal(err)
		}
		gotD := w.MeasuredDensity(horizon)
		if rel := math.Abs(gotD-s.D) / s.D; rel > 0.10 {
			t.Errorf("Exponential(%v): measured D=%.3g, want %.3g (rel err %.2f)", s, gotD, s.D, rel)
		}
		gotP := w.MeasuredProbability(horizon)
		if math.Abs(gotP-s.P) > 0.05 {
			t.Errorf("Exponential(%v): measured P=%.3f, want %.3f", s, gotP, s.P)
		}
	}
}

func TestExponentialZeroDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := Signal{P: 0.7, D: 0}.Exponential(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Events) != 0 {
		t.Errorf("D=0 waveform has %d events, want 0", len(w.Events))
	}
}

func TestExponentialPinnedProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []float64{0, 1} {
		w, err := Signal{P: p, D: 1e6}.Exponential(1e-3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Events) != 0 {
			t.Errorf("P=%v waveform has transitions", p)
		}
		if w.Initial != (p == 1) {
			t.Errorf("P=%v initial = %v", p, w.Initial)
		}
	}
}

func TestExponentialRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := (Signal{P: 2, D: 1}).Exponential(1, rng); err == nil {
		t.Error("invalid signal accepted")
	}
	if _, err := (Signal{P: 0.5, D: 1}).Exponential(-1, rng); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := (Signal{P: 0.5, D: math.Inf(1)}).Exponential(1, rng); err == nil {
		t.Error("infinite density accepted")
	}
}

func TestClockedStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := Signal{P: 0.5, D: 0.5} // scenario B statistics
	cycles := 20000
	w, err := s.Clocked(cycles, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	perCycle := float64(len(w.Events)) / float64(cycles)
	if math.Abs(perCycle-0.5) > 0.02 {
		t.Errorf("Clocked: %.3f transitions/cycle, want 0.5", perCycle)
	}
	gotP := w.MeasuredProbability(float64(cycles))
	if math.Abs(gotP-0.5) > 0.02 {
		t.Errorf("Clocked: measured P=%.3f, want 0.5", gotP)
	}
}

func TestClockedUnrealizable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// P=0.9 allows at most 2·0.1=0.2 toggles/cycle from state 0 side:
	// t0 = D/(2·0.1) > 1 for D=0.5.
	if _, err := (Signal{P: 0.9, D: 0.5}).Clocked(10, 1, rng); err == nil {
		t.Error("unrealizable clocked signal accepted")
	}
	if _, err := (Signal{P: 1, D: 0.5}).Clocked(10, 1, rng); err == nil {
		t.Error("pinned P with D>0 accepted")
	}
	if _, err := (Signal{P: 0.5, D: 0.5}).Clocked(10, 0, rng); err == nil {
		t.Error("zero cycle accepted")
	}
	// A NaN fails every comparison, so a bare cycle <= 0 check let both
	// through as NaN and +Inf event times.
	for _, cycle := range []float64{math.NaN(), math.Inf(1)} {
		if w, err := (Signal{P: 0.5, D: 0.5}).Clocked(4, cycle, rng); err == nil {
			t.Errorf("cycle %v accepted: events %v", cycle, w.Events)
		}
	}
}

func TestClockedEventsOnClockEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w, err := Signal{P: 0.5, D: 0.5}.Clocked(100, 2.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Events {
		cyclePos := e.Time / 2.5
		if math.Abs(cyclePos-math.Round(cyclePos)) > 1e-9 {
			t.Fatalf("event at %v not on a clock edge", e.Time)
		}
	}
}

func TestValueAt(t *testing.T) {
	w := &Waveform{Initial: false, Events: []Event{{1, true}, {3, false}}}
	cases := []struct {
		t    float64
		want bool
	}{{0, false}, {0.5, false}, {1, true}, {2, true}, {3, false}, {10, false}}
	for _, c := range cases {
		if got := w.ValueAt(c.t); got != c.want {
			t.Errorf("ValueAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestMeasuredProbabilityPiecewise(t *testing.T) {
	w := &Waveform{Initial: true, Events: []Event{{2, false}, {6, true}}}
	// On [0,8]: 1 during [0,2) and [6,8) → 4/8.
	if got := w.MeasuredProbability(8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeasuredProbability = %v, want 0.5", got)
	}
}

func TestMergeWaveformsOrdering(t *testing.T) {
	a := &Waveform{Events: []Event{{1, true}, {4, false}}}
	b := &Waveform{Events: []Event{{2, true}, {4, false}}}
	merged := MergeWaveforms([]*Waveform{a, b})
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time < merged[i-1].Time {
			t.Fatal("merged events out of order")
		}
	}
	// Stability: at t=4, input 0 comes before input 1.
	if merged[2].Input != 0 || merged[3].Input != 1 {
		t.Errorf("simultaneous events not stable: %+v", merged[2:])
	}
}

func TestQuickWaveformTransitionsAlternate(t *testing.T) {
	// Generated waveforms must strictly alternate values (every event is a
	// real transition).
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed int64, pRaw, dRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 0.1 + 0.8*float64(pRaw)/255
		d := 1e4 + 1e6*float64(dRaw)/255
		w, err := Signal{P: p, D: d}.Exponential(1e-4, rng)
		if err != nil {
			return false
		}
		v := w.Initial
		for _, e := range w.Events {
			if e.Value == v {
				return false
			}
			v = e.Value
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickClockedAlternates(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := Signal{P: 0.5, D: 0.5}.Clocked(200, 1, rng)
		if err != nil {
			return false
		}
		v := w.Initial
		for _, e := range w.Events {
			if e.Value == v {
				return false
			}
			v = e.Value
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestSignalString(t *testing.T) {
	got := Signal{P: 0.5, D: 1e6}.String()
	if got != "P=0.500 D=1e+06" {
		t.Errorf("String() = %q", got)
	}
}

func BenchmarkExponentialWaveform(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := Signal{P: 0.5, D: 1e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exponential(1e-3, rng); err != nil {
			b.Fatal(err)
		}
	}
}
