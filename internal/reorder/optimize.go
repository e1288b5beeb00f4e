package reorder

import (
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/stoch"
)

// optimize is the one traversal behind Optimize (see the package
// comment): construct the engine, then commit in topological order
// through Incremental.SetConfigEvaluated. The pure power modes choose in
// the construction hook (powerSearch), the delay-aware modes in the
// commit loop (delayChooser). Candidates are sorted by ConfigKey, ties
// break to the earliest (core.Pick) and the commit order is fixed, so the
// floating-point power accumulation — and the whole Report — is
// bit-identical for any worker count.
func optimize(out *circuit.Circuit, pi map[string]stoch.Signal, opt Options, workers int) (*Report, error) {
	if opt.Mode == Full || opt.Mode == InputOnly {
		hook, picks := powerSearch(len(out.Gates), opt, opt.Objective)
		inc, err := core.NewIncrementalParallelFunc(out, pi, opt.Params, workers, hook)
		if err != nil {
			return nil, err
		}
		return commit(inc, picks[0])
	}
	inc, err := core.NewIncrementalParallelFunc(out, pi, opt.Params, workers, nil)
	if err != nil {
		return nil, err
	}
	// A valid circuit's nets are its inputs and one output per gate.
	dc := &delayChooser{inc: inc, opt: opt, arr: make([]float64, len(out.Inputs)+len(out.Gates))}
	return commit(inc, dc.choose)
}

// bestAndWorstPower is BestAndWorst in the pure power modes: one engine
// construction whose hook evaluates each gate's candidate set once and
// picks for both objectives, then one commit loop per objective, each on
// its own fork of the constructed engine. The candidate powers, the
// picks and each commit sequence are exactly those of two optimize
// calls, so both reports are bit-identical to them.
func bestAndWorstPower(out *circuit.Circuit, pi map[string]stoch.Signal, opt Options, workers int) (best, worst *Report, err error) {
	hook, picks := powerSearch(len(out.Gates), opt, Minimize, Maximize)
	inc, err := core.NewIncrementalParallelFunc(out, pi, opt.Params, workers, hook)
	if err != nil {
		return nil, nil, err
	}
	incWorst := inc.Fork()
	if best, err = commit(inc, picks[0]); err != nil {
		return nil, nil, err
	}
	if worst, err = commit(incWorst, picks[1]); err != nil {
		return nil, nil, err
	}
	return best, worst, nil
}

// commit is the serial commit loop: it visits inc's gates in topological
// order, asks choose for each gate's configuration and books every move
// through SetConfigEvaluated.
func commit(inc *core.Incremental, choose func(i int) (core.ConfigPower, bool, error)) (*Report, error) {
	report := &Report{Circuit: inc.Circuit(), PowerBefore: inc.Power()}
	for i, g := range inc.Order() {
		cp, moved, err := choose(i)
		if err != nil {
			return nil, err
		}
		if moved {
			report.GatesChanged++
			if err := inc.SetConfigEvaluated(i, cp); err != nil {
				return nil, fmt.Errorf("reorder: instance %s: %w", g.Name, err)
			}
		}
	}
	report.PowerAfter = inc.Power()
	return report, nil
}

// pickScratch is the per-goroutine buffer set of the candidate search:
// the pin-signal slice plus the batch evaluator's own scratch, so the
// steady-state search allocates nothing per gate.
type pickScratch struct {
	in       []stoch.Signal
	analyzer core.ConfigAnalyzer
}

// powerSearch returns the pure power modes' construction hook and, per
// objective in objs, the commit loop's read of its results. The hook
// evaluates the mode's whole candidate set once through the batched
// core.ConfigAnalyzer and runs the move test for every objective, off
// the serial path; it reads only settled engine state, so construction
// workers may run it concurrently.
func powerSearch(n int, opt Options, objs ...Objective) (func(*core.Incremental, int) error, []func(int) (core.ConfigPower, bool, error)) {
	chosen := make([][]core.ConfigPower, len(objs))
	changed := make([][]bool, len(objs))
	picks := make([]func(int) (core.ConfigPower, bool, error), len(objs))
	for k := range objs {
		chosen[k], changed[k] = make([]core.ConfigPower, n), make([]bool, n)
		picks[k] = func(i int) (core.ConfigPower, bool, error) { return chosen[k][i], changed[k][i], nil }
	}
	scratch := sync.Pool{New: func() interface{} { return &pickScratch{} }}
	hook := func(inc *core.Incremental, i int) error {
		g := inc.Order()[i]
		s := scratch.Get().(*pickScratch)
		defer scratch.Put(s)
		in, err := inc.InputsAt(i, s.in[:0])
		s.in = in
		if err != nil {
			return fmt.Errorf("reorder: %w", err)
		}
		cfgs := g.Cell.AllConfigs()
		if opt.Mode == InputOnly {
			cfgs = currentInstance(g.Cell)
		}
		cands, err := s.analyzer.Analyze(cfgs, in, inc.LoadAt(i), opt.Params)
		if err != nil {
			return fmt.Errorf("reorder: instance %s: %w", g.Name, err)
		}
		for k, obj := range objs {
			best, err := core.Pick(cands, obj == Maximize)
			if err != nil {
				return fmt.Errorf("reorder: instance %s: %w", g.Name, err)
			}
			chosen[k][i] = cands[best]
			changed[k][i] = cands[best].Config != g.Cell
		}
		return nil
	}
	return hook, picks
}

// delayChooser makes the delay-aware modes' choice in the commit loop,
// where every upstream choice, and so every pin arrival, is known. arr
// holds the arrival of each net's committed driver by net ID (primary
// inputs at 0); the other slices and the analyzer are per-gate scratch.
type delayChooser struct {
	inc      *core.Incremental
	opt      Options
	arr      []float64
	arrIn    []float64
	in       []stoch.Signal
	cfgs     []*gate.Gate
	cfgArr   []float64 // arrival of each of cfgs
	allArr   []float64 // arrival of each of the cell's AllConfigs
	analyzer core.ConfigAnalyzer
}

// choose picks gate i's configuration, records its output arrival and
// returns its evaluation and whether it is a move. DelayRule takes
// DelayOptimal's pick and evaluates it only when it moves; DelayNeutral
// takes the objective-optimal configuration by model power among those
// arriving no later than the current one.
func (dc *delayChooser) choose(i int) (core.ConfigPower, bool, error) {
	inc, opt := dc.inc, dc.opt
	g := inc.Order()[i]
	fail := func(err error) (core.ConfigPower, bool, error) {
		return core.ConfigPower{}, false, fmt.Errorf("reorder: instance %s: %w", g.Name, err)
	}
	load := inc.LoadAt(i)
	// Construction interned every pin and output net: NetID cannot miss.
	dc.arrIn = dc.arrIn[:0]
	for _, p := range g.Pins {
		id, _ := inc.NetID(p)
		dc.arrIn = append(dc.arrIn, dc.arr[id])
	}
	out, _ := inc.NetID(g.Out)
	dc.cfgs, dc.cfgArr, dc.allArr = dc.cfgs[:0], dc.cfgArr[:0], dc.allArr[:0]
	if opt.Mode == DelayRule {
		cfg, a, err := delay.DelayOptimal(g.Cell, dc.arrIn, load, opt.Delay)
		if err != nil {
			return fail(err)
		}
		if cfg == g.Cell {
			dc.arr[out] = a
			return core.ConfigPower{}, false, nil
		}
		dc.cfgs, dc.cfgArr = append(dc.cfgs, cfg), append(dc.cfgArr, a)
	} else {
		// Each candidate's arrival once; the limit is the current one's.
		all, cur := g.Cell.AllConfigs(), -1
		for k, cfg := range all {
			a, err := delay.Arrival(cfg, dc.arrIn, load, opt.Delay)
			if err != nil {
				return fail(err)
			}
			if cfg == g.Cell {
				cur = k
			}
			dc.allArr = append(dc.allArr, a)
		}
		if cur < 0 {
			return fail(fmt.Errorf("configuration %v is not interned by package gate", g.Cell))
		}
		limit := dc.allArr[cur]
		for k, a := range dc.allArr {
			if a <= limit*(1+1e-12) {
				dc.cfgs, dc.cfgArr = append(dc.cfgs, all[k]), append(dc.cfgArr, a)
			}
		}
	}
	// Evaluate against the engine's current statistics and load: the
	// state SetConfigEvaluated books the delta against.
	in, err := inc.InputsAt(i, dc.in[:0])
	if err != nil {
		return fail(err)
	}
	dc.in = in
	cands, err := dc.analyzer.Analyze(dc.cfgs, in, load, opt.Params)
	if err != nil {
		return fail(err)
	}
	best, err := core.Pick(cands, opt.Objective == Maximize)
	if err != nil {
		return fail(err)
	}
	dc.arr[out] = dc.cfgArr[best]
	return cands[best], cands[best].Config != g.Cell, nil
}
