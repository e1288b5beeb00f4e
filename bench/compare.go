package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain implements `bench compare [-spec BENCHMARK.json] BASE HEAD`:
// for every workload and end-to-end metric in two directories of results
// files it prints each side's median and quartiles, the share of
// alternating pairs the head wins, and a verdict under the spec's bound.
// It exits 1 when any metric regressed.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASE_DIR HEAD_DIR")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	base, err := readResults(fs.Arg(0))
	if err == nil {
		var head map[string][]resultRecord
		if head, err = readResults(fs.Arg(1)); err == nil {
			rows := compareRuns(sp, base, head)
			printComparison(stdout, rows)
			for _, r := range rows {
				if r.verdict == regressed {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// readResults loads every untraced results file in dir, grouped by
// workload in the order the runs finished.
func readResults(dir string) (map[string][]resultRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]resultRecord{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced results files", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Finished.Before(rs[j].Finished) })
	}
	return out, nil
}

type verdict string

const (
	improved   verdict = "improved"
	regressed  verdict = "regressed"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// comparison is one workload × metric row.
type comparison struct {
	workload, metric, unit string
	base, head             [3]float64 // first quartile, median, third quartile
	nBase, nHead           int
	change                 float64 // (head - base) / base median
	wins                   float64 // share of pairs the head wins
	verdict                verdict
}

// compareRuns judges every end-to-end metric of every workload both sides
// ran, plus the failure count.
func compareRuns(sp *spec, base, head map[string][]resultRecord) []comparison {
	var workloads []string
	for w := range base {
		if _, ok := head[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []comparison
	for _, w := range workloads {
		for _, d := range sp.EndToEnd {
			b, h := metricValues(base[w], d.Name), metricValues(head[w], d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			row := judge(b, h, d)
			row.workload = w
			rows = append(rows, row)
		}
		row := comparison{workload: w, metric: "failed", unit: "count", verdict: unchanged}
		for _, r := range base[w] {
			row.base[1] += float64(r.Failed)
		}
		for _, r := range head[w] {
			row.head[1] += float64(r.Failed)
		}
		row.nBase, row.nHead = len(base[w]), len(head[w])
		if row.head[1] > row.base[1] {
			row.verdict = regressed
		}
		rows = append(rows, row)
	}
	return rows
}

func metricValues(rs []resultRecord, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge applies the comparison rules to one metric:
//   - unresolved when either side's quartile spread, as a share of its
//     median, exceeds the bound, unless every head run beats every base run;
//   - regressed when the head median is worse by more than the bound;
//   - improved when the head wins at least nine tenths of the pairs and the
//     medians differ by more than the base's quartile spread;
//   - unchanged otherwise.
func judge(base, head []float64, d metricDef) comparison {
	row := comparison{metric: d.Name, unit: d.Unit, nBase: len(base), nHead: len(head)}
	row.base[0], row.base[1], row.base[2] = quartiles(base)
	row.head[0], row.head[1], row.head[2] = quartiles(head)
	better := func(a, b float64) bool { // a reads better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs, wins := min(len(base), len(head)), 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	row.wins = float64(wins) / float64(pairs)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	bmed, hmed := row.base[1], row.head[1]
	row.change = (hmed - bmed) / bmed
	worse := row.change
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max((row.base[2]-row.base[0])/bmed, (row.head[2]-row.head[0])/hmed)
	switch {
	case allBetter:
		row.verdict = improved
	case spread > d.Bound:
		row.verdict = unresolved
	case worse > d.Bound:
		row.verdict = regressed
	case worse < 0 && row.wins >= 0.9 && math.Abs(hmed-bmed) > row.base[2]-row.base[0]:
		row.verdict = improved
	default:
		row.verdict = unchanged
	}
	return row
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-13s %-17s %-6s %-32s %-32s %8s %5s  %s\n",
		"workload", "metric", "unit", "base median [q1 q3] n", "head median [q1 q3] n", "change", "wins", "verdict")
	side := func(q [3]float64, n int) string {
		return fmt.Sprintf("%.4g [%.4g %.4g] %d", q[1], q[0], q[2], n)
	}
	for _, r := range rows {
		change, wins := fmt.Sprintf("%+.1f%%", 100*r.change), fmt.Sprintf("%.0f%%", 100*r.wins)
		if r.metric == "failed" {
			change, wins = "", ""
		}
		fmt.Fprintf(w, "%-13s %-17s %-6s %-32s %-32s %8s %5s  %s\n", r.workload, r.metric, r.unit,
			side(r.base, r.nBase), side(r.head, r.nHead), change, wins, r.verdict)
	}
}
