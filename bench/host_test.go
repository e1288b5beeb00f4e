package main

import (
	"testing"
	"time"
)

// TestStealClockBrackets pins how an interval picks its samples: the last
// at or before its start and the first at or after its end.
func TestStealClockBrackets(t *testing.T) {
	t0 := time.Now().Add(-time.Minute)
	c := &stealClock{samples: []tickSample{
		{t0, cpuTicks{busy: 0, steal: 0}},
		{t0.Add(time.Second), cpuTicks{busy: 100, steal: 100}},
		{t0.Add(2 * time.Second), cpuTicks{busy: 200, steal: 100}},
	}}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{500, 900, 0.5},    // inside the first second: half stolen
		{1200, 1800, 1},    // inside the second: nothing stolen
		{0, 2000, 2.0 / 3}, // both
		{900, 1100, 2.0 / 3},
	} {
		if got := c.ran(at(tc.from), at(tc.to)); got != tc.want {
			t.Errorf("ran(%d ms, %d ms) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := c.net(at(500), at(900)); got != 200*time.Millisecond {
		t.Errorf("net of a half-stolen 400 ms = %v, want 200ms", got)
	}
	var none *stealClock
	if none.ran(t0, time.Now()) != 1 {
		t.Error("a nil clock corrects")
	}
}
