package sim

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/circuit"
	"repro/internal/stoch"
)

// Trace records every net transition of a simulation run for waveform
// inspection (VCD export) and glitch analysis.
type Trace struct {
	Nets    []string            // all nets, inputs first
	Initial map[string]bool     // value at t=0 after settling
	Changes []stoch.TaggedEvent // Input indexes into Nets
	horizon float64
}

// RunTrace is Run with full transition recording. The single-lane run
// takes the compiled engines' per-lane slow path, which logs every net
// transition of lane 0 with its instant: tick × Tick for timed runs, the
// merged input-event time for zero-delay runs. Within an instant, input
// changes come first (in input order), then gate outputs in topological
// order.
func RunTrace(c *circuit.Circuit, waves map[string]*stoch.Waveform, horizon float64, prm Params) (*Result, *Trace, error) {
	lm := &laneMeter{trace: true}
	br, err := runSingle(c, waves, horizon, prm, lm)
	if err != nil {
		return nil, nil, err
	}
	timeOf := func(tick int64) float64 { return float64(tick) * lm.tick }
	if prm.Mode == ZeroDelay {
		steps := stepTimes(c.Inputs, waves, horizon)
		timeOf = func(step int64) float64 { return steps[step] }
	}
	tr := &Trace{Nets: c.Nets(), Initial: map[string]bool{}, horizon: horizon}
	idx := make(map[string]int, len(tr.Nets))
	for i, n := range tr.Nets {
		idx[n] = i
	}
	// Net values run forward from t=0. The engine reports final values, so
	// a net's initial value is its final value flipped once per logged
	// transition.
	value := make(map[string]bool, len(tr.Nets))
	for mi, mp := range lm.meters {
		if mp.kind != meterInternal {
			value[mp.net] = lm.final[mi]
		}
	}
	for _, e := range lm.log {
		if mp := lm.meters[e.meter]; mp.kind != meterInternal {
			value[mp.net] = !value[mp.net]
		}
	}
	for _, n := range tr.Nets {
		tr.Initial[n] = value[n]
	}
	for _, e := range lm.log {
		mp := lm.meters[e.meter]
		if mp.kind == meterInternal {
			continue
		}
		value[mp.net] = !value[mp.net]
		tr.Changes = append(tr.Changes, stoch.TaggedEvent{Time: timeOf(e.at), Input: idx[mp.net], Value: value[mp.net]})
	}
	return &br.Result, tr, nil
}

// stepTimes returns the instant of every settling step of a single-lane
// zero-delay stimulus: the distinct input-event times up to the horizon
// at which some input changes value — the instants PackWaveforms turns
// into steps.
func stepTimes(inputs []string, waves map[string]*stoch.Waveform, horizon float64) []float64 {
	ws := make([]*stoch.Waveform, len(inputs))
	state := make([]bool, len(inputs))
	for i, in := range inputs {
		ws[i] = waves[in]
		state[i] = ws[i].Initial
	}
	merged := stoch.MergeWaveforms(ws)
	var times []float64
	for k := 0; k < len(merged) && merged[k].Time <= horizon; {
		t := merged[k].Time
		changed := false
		for ; k < len(merged) && merged[k].Time == t; k++ {
			if state[merged[k].Input] != merged[k].Value {
				state[merged[k].Input] = merged[k].Value
				changed = true
			}
		}
		if changed {
			times = append(times, t)
		}
	}
	return times
}

// WriteVCD renders the trace as a Value Change Dump viewable in any
// waveform browser. Times are emitted in picoseconds.
func (tr *Trace) WriteVCD(w io.Writer, moduleName string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "$version transistor-reordering switch-level simulator $end")
	fmt.Fprintln(bw, "$timescale 1ps $end")
	fmt.Fprintf(bw, "$scope module %s $end\n", moduleName)
	ids := make(map[string]string, len(tr.Nets))
	for i, n := range tr.Nets {
		id := vcdID(i)
		ids[n] = id
		fmt.Fprintf(bw, "$var wire 1 %s %s $end\n", id, n)
	}
	fmt.Fprintln(bw, "$upscope $end")
	fmt.Fprintln(bw, "$enddefinitions $end")
	fmt.Fprintln(bw, "$dumpvars")
	names := append([]string(nil), tr.Nets...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "%s%s\n", vcdBit(tr.Initial[n]), ids[n])
	}
	fmt.Fprintln(bw, "$end")
	lastTime := int64(-1)
	for _, e := range tr.Changes {
		t := int64(e.Time * 1e12)
		if t != lastTime {
			fmt.Fprintf(bw, "#%d\n", t)
			lastTime = t
		}
		fmt.Fprintf(bw, "%s%s\n", vcdBit(e.Value), ids[tr.Nets[e.Input]])
	}
	fmt.Fprintf(bw, "#%d\n", int64(tr.horizon*1e12))
	return bw.Flush()
}

func vcdBit(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// vcdID maps a net index to a short printable identifier.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
	id := ""
	for {
		id = string(alphabet[i%len(alphabet)]) + id
		i /= len(alphabet)
		if i == 0 {
			return id
		}
		i--
	}
}
