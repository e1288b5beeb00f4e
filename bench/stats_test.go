package main

import (
	"testing"

	"repro/internal/sweep"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		q, n int
		ok   bool
	}{
		{50, 20, true}, {50, 19, false},
		{90, 100, true}, {90, 99, false}, {90, 1000, true},
		{99, 1000, true}, {99, 999, false},
		{50, 0, false},
	} {
		if got := supported(c.q, c.n); got != c.ok {
			t.Errorf("supported(p%d, %d samples) = %t, want %t", c.q, c.n, got, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (nearest rank, 10 samples beyond)", v, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted; only 9 lie beyond it")
	}
}

func TestIQMAveragesTheMiddleHalf(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	xs[0] = 1e9 // an outlier in the top quarter does not count
	if v, err := iqm(xs); err != nil || v != 20.5 {
		t.Errorf("IQM of 1..40 = %v, %v; want 20.5, the mean of 11..30", v, err)
	}
	if _, err := iqm(xs[:39]); err == nil {
		t.Error("IQM of 39 samples accepted; only 9 lie beyond the third quartile")
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(xs, n=4), extrapolation on tiny samples included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 4, 4, 4, 4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSweepDigestIgnoresOnlyElapsed(t *testing.T) {
	rs := []sweep.Result{
		{Index: 0, Benchmark: "c17", Scenario: "A", Mode: "full", Seed: 1, Gates: 6, PowerBest: 1, PowerWorst: 2, ModelRed: 0.5, ElapsedMS: 3.25},
		{Index: 1, Benchmark: "rca4", Scenario: "A", Mode: "full", Seed: 1, Gates: 12, PowerBest: 2, PowerWorst: 3, ElapsedMS: 7},
	}
	base := sweepDigest(rs)
	timed := append([]sweep.Result(nil), rs...)
	timed[0].ElapsedMS, timed[1].ElapsedMS = 99, 0
	if sweepDigest(timed) != base {
		t.Error("digest depends on elapsed_ms")
	}
	changed := append([]sweep.Result(nil), rs...)
	changed[1].SimRed = 1e-12
	if sweepDigest(changed) == base {
		t.Error("digest ignores a computed column")
	}
	if sweepDigest([]sweep.Result{rs[1], rs[0]}) == base {
		t.Error("digest ignores job order")
	}
}

func TestServeDigestIgnoresCompletionOrder(t *testing.T) {
	a := exchange{Path: "/v1/analyze", Request: []byte(`{"benchmark":"c17"}`), Response: []byte(`{"power":1}`)}
	b := exchange{Path: "/v1/simulate", Request: []byte(`{"benchmark":"c17"}`), Response: []byte(`{"power":2}`)}
	if serveDigest([]exchange{a, b}) != serveDigest([]exchange{b, a}) {
		t.Error("digest depends on the order requests completed in")
	}
	b2 := b
	b2.Response = []byte(`{"power":3}`)
	if serveDigest([]exchange{a, b}) == serveDigest([]exchange{a, b2}) {
		t.Error("digest ignores a response body")
	}
	// Length framing: moving bytes from the request into the response
	// must not collide.
	c := exchange{Path: "/v1/analyze", Request: []byte(`{"benchmark":"c17"}{`), Response: []byte(`"power":1}`)}
	if serveDigest([]exchange{a}) == serveDigest([]exchange{c}) {
		t.Error("digest does not frame request and response")
	}
}
