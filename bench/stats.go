package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sweep"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// rank returns the 1-based nearest rank of percentile q (0 < q < 100) in n
// sorted samples, ceil(q·n/100), computed in integers so p90 of 100 is
// exactly rank 90.
func rank(q, n int) int { return (q*n + 99) / 100 }

// supported reports whether n samples leave at least minBeyond samples
// beyond percentile q.
func supported(q, n int) bool { return n > 0 && n-rank(q, n) >= minBeyond }

// percentile is the nearest-rank q-th percentile of xs (which it sorts in
// place). It reports an error when the sample cannot support q.
func percentile(xs []float64, q int) (float64, error) {
	if !supported(q, len(xs)) {
		return 0, fmt.Errorf("p%d needs at least %d samples beyond it; have %d samples", q, minBeyond, len(xs))
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1], nil
}

// iqm is the interquartile mean of xs (which it sorts in place): the mean
// of the middle half, with a quarter of the samples, rounded down, dropped
// from each end. Like a percentile it needs minBeyond samples above the
// third quartile.
func iqm(xs []float64) (float64, error) {
	if !supported(75, len(xs)) {
		return 0, fmt.Errorf("an interquartile mean needs at least %d samples beyond the third quartile; have %d samples", minBeyond, len(xs))
	}
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid)), nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(n=4), the
// rule the benchmark's spread checks use. xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// CPython's formula, integer steps included: position i·(n+1)/4
	// (1-based), with the index clamped to [1, n-1] and the weight left
	// unclamped, so tiny samples extrapolate exactly as Python does.
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// sweepDigest is the output check of a sweep: SHA-256 over the results
// in job-index order, one JSON line each, with the non-deterministic
// elapsed_ms removed. Any change to a computed column changes it.
func sweepDigest(results []sweep.Result) string {
	h := sha256.New()
	for _, r := range results {
		r.ElapsedMS = 0 // omitempty drops the field
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // sweep.Result holds only plain fields
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// exchange is one distinct service request and the body it returned.
type exchange struct {
	Path     string
	Request  []byte
	Response []byte
}

// serveDigest is the output check of the service: SHA-256 over the
// (request, response) pairs sorted by request, so it does not depend on
// the order in which the requests completed.
func serveDigest(xs []exchange) string {
	s := append([]exchange(nil), xs...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Path != s[j].Path {
			return s[i].Path < s[j].Path
		}
		return string(s[i].Request) < string(s[j].Request)
	})
	h := sha256.New()
	for _, x := range s {
		fmt.Fprintf(h, "%s\n%d\n%s%d\n%s", x.Path, len(x.Request), x.Request, len(x.Response), x.Response)
	}
	return hex.EncodeToString(h.Sum(nil))
}
