package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJudgeVerdicts(t *testing.T) {
	higher := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	lower := metricDef{Name: "latency_ms_iqm", Unit: "ms", Better: "lower", Bound: 0.1}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name       string
		def        metricDef
		base, head []float64
		want       verdict
	}{
		{"same", higher, tight, tight, unchanged},
		{"every head run faster", higher, tight, scale(tight, 1.2), improved},
		{"head 15% slower", higher, tight, scale(tight, 0.85), regressed},
		{"head 5% slower is within the bound", higher, tight, scale(tight, 0.95), unchanged},
		{"latency 15% up", lower, tight, scale(tight, 1.15), regressed},
		{"latency 20% down", lower, tight, scale(tight, 0.8), improved},
		{"spread wider than the bound", higher, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(tight, 0.85), unresolved},
		{"wide but every head run better", lower, []float64{60, 140, 80, 120, 100}, []float64{10, 11, 12, 13, 14}, improved},
	} {
		if got := judge(c.base, c.head, c.def); got.verdict != c.want {
			t.Errorf("%s: verdict %s (change %+.3f, wins %.2f), want %s", c.name, got.verdict, got.change, got.wins, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestCompareMain runs the command on two results directories: a
// regression in one metric fails it, and more failed operations on the
// head side counts as a regression even with equal metrics.
func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	sp := `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}],"per_layer":[]}`
	if err := os.WriteFile(specPath, []byte(sp), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, i int, v float64, failed int) {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := resultRecord{Workload: "w", Seed: int64(i), Finished: time.Unix(int64(i), 0),
			resultLine: resultLine{Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]resultMetric{"throughput_per_s": {Value: v, Unit: "1/s"}}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, filepath.Base(t.Name())+string(rune('a'+i))+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{100, 101, 99, 100, 100} {
		write("base", i, v, 0)
		write("same", i, v, 0)
		write("slow", i, v*0.8, 0)
		write("failing", i, v, i%2)
	}
	for _, c := range []struct {
		head string
		code int
		want string
	}{
		{"same", 0, "unchanged"},
		{"slow", 1, "regressed"},
		{"failing", 1, "regressed"},
	} {
		var out strings.Builder
		code := compareMain([]string{"-spec", specPath, filepath.Join(dir, "base"), filepath.Join(dir, c.head)}, &out)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("compare base %s: exit %d, want %d, output:\n%s", c.head, code, c.code, out.String())
		}
	}
}
