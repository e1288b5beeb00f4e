// Package reorder implements the paper's power-optimization algorithm
// (Figure 3): a single depth-first traversal of the circuit that, for
// every gate, exhaustively explores its transistor reorderings with the
// extended power model and keeps the best (or, for the Table 3
// measurement, the worst) configuration. The monotonic property of
// Section 4.2 — every configuration of a gate propagates identical output
// statistics — makes the greedy single pass optimal under the model; a
// second pass is a no-op (asserted by tests and an ablation bench).
//
// The traversal runs on top of core.Incremental, the fan-out-cone
// propagation engine. Its construction is the one full circuit analysis
// (it yields PowerBefore); after it, one serial commit loop visits the
// gates in topological order and books every move through
// Incremental.SetConfigEvaluated. Because reordering preserves each
// gate's output statistics, a move's cone collapses to the gate itself
// and its power delta comes from the candidate evaluation that chose it:
// one gate-model evaluation per candidate configuration, none per commit
// and no closing whole-circuit re-analysis.
//
// All four modes share that traversal (see optimize); they differ only in
// where a gate's configuration is chosen. In the pure power modes every
// gate's candidate powers depend only on the original net statistics,
// never on what other gates chose, so the search rides the construction
// wavefront on Options.Workers goroutines. The delay-aware modes
// condition on the arrival times of upstream choices and choose inside
// the commit loop. Reports are bit-identical under any worker count.
//
// BestAndWorst, Table 3's minimum/maximum pair, shares the traversal's
// work wherever the objective cannot change what the search reads. In
// the pure power modes one engine construction evaluates each gate's
// candidate set once and picks for both objectives; each objective's
// moves then commit on its own fork of that engine
// (core.Incremental.Fork). DelayRule ignores the objective, so its worst
// report is the best one over a cloned circuit. DelayNeutral's choices
// follow the arrivals of upstream choices, so it runs one traversal per
// objective. Both reports equal two Optimize calls bit for bit.
package reorder

import (
	"fmt"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/stoch"
)

// Mode selects the search space per gate.
type Mode int

// Optimization modes.
const (
	// Full explores every transistor reordering (the paper's technique).
	Full Mode = iota
	// InputOnly explores only configurations reachable by rewiring
	// symmetric inputs within the gate's current layout instance — the
	// input-reordering subset technique of Section 2.
	InputOnly
	// DelayRule ignores power and picks the configuration minimizing the
	// gate's output arrival time (the classic speed rule the paper
	// contrasts with; used as the delay baseline).
	DelayRule
	// DelayNeutral implements the paper's stated future-work direction
	// ("it is possible to achieve power reductions without increasing the
	// delay of the circuit"): per gate, minimize model power over only
	// those configurations whose output arrival does not exceed the
	// original configuration's — so the optimized circuit is never slower
	// than the input mapping.
	DelayNeutral
)

func (m Mode) String() string {
	switch m {
	case Full:
		return "full"
	case InputOnly:
		return "input-only"
	case DelayRule:
		return "delay-rule"
	case DelayNeutral:
		return "delay-neutral"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Objective selects minimization or maximization of the model power.
type Objective int

// Objectives. Worst exists to measure the best-versus-worst spread
// reported in Table 3.
const (
	Minimize Objective = iota
	Maximize
)

// Options configures an optimization run.
type Options struct {
	Mode      Mode
	Objective Objective
	Params    core.Params  // power-model constants
	Delay     delay.Params // used by DelayRule mode

	// Workers bounds the optimizer's worker pool: 0 means GOMAXPROCS,
	// 1 forces serial execution. Results are bit-identical for any value.
	// In the pure power modes (Full, InputOnly) the pool runs the whole
	// candidate search alongside the engine's initial circuit analysis;
	// in the delay-aware modes the per-gate choice depends on upstream
	// arrival times and is made in the serial commit loop — Workers then
	// only parallelizes the initial analysis.
	Workers int
}

// DefaultOptions is the paper's configuration: full reordering, minimum
// power, default constants, GOMAXPROCS search workers.
func DefaultOptions() Options {
	return Options{Mode: Full, Objective: Minimize, Params: core.DefaultParams(), Delay: delay.DefaultParams()}
}

// Report summarizes an optimization.
type Report struct {
	Circuit      *circuit.Circuit // the reordered circuit (input untouched)
	GatesChanged int              // instances whose configuration changed
	PowerBefore  float64          // model watts before
	PowerAfter   float64          // model watts after
}

// Reduction returns the relative model-power reduction.
func (r *Report) Reduction() float64 {
	if r.PowerBefore == 0 {
		return 0
	}
	return (r.PowerBefore - r.PowerAfter) / r.PowerBefore
}

// Optimize runs the Figure 3 algorithm on a copy of c and returns the
// report. pi maps every primary input to its statistics; they drive both
// the per-gate exploration and the before/after estimates.
//
// In the pure power modes (Full, InputOnly) the per-gate candidate search
// runs on opt.Workers goroutines against the original statistics — valid
// because reordering propagates identical output statistics (Sec. 4.2).
// The delay-aware modes choose during the serial commit: their choice at
// each gate depends on the arrival times produced by upstream choices.
// The result is bit-identical for any worker count.
func Optimize(c *circuit.Circuit, pi map[string]stoch.Signal, opt Options) (*Report, error) {
	workers, err := check(c, opt)
	if err != nil {
		return nil, err
	}
	return optimize(c.Clone(), pi, opt, workers)
}

// check validates an optimization request and resolves its worker count.
func check(c *circuit.Circuit, opt Options) (workers int, err error) {
	if err := opt.Params.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	switch opt.Mode {
	case Full, InputOnly:
	case DelayRule, DelayNeutral:
		if err := opt.Delay.Validate(); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("reorder: unknown mode %v", opt.Mode)
	}
	if opt.Workers > 0 {
		return opt.Workers, nil
	}
	return runtime.GOMAXPROCS(0), nil
}

// currentInstance returns the orbit of configurations containing g's
// current configuration — what rewiring symmetric inputs can reach without
// changing the physical layout.
func currentInstance(g *gate.Gate) []*gate.Gate {
	for _, inst := range g.Instances() {
		for _, cfg := range inst.Configs {
			if cfg == g {
				return inst.Configs
			}
		}
	}
	// Every interned configuration is in its own partition; reaching here
	// means g was not built by package gate.
	panic(fmt.Sprintf("reorder: configuration %v missing from its own instance partition", g))
}

// BestAndWorst returns the minimum- and maximum-power reorderings of c
// (opt.Objective is ignored) — the pair of netlists the paper feeds to
// the switch-level simulator for Table 3. Both reports are bit-identical
// to two Optimize calls, one per objective, and share no instance, but
// the work is shared where the objective cannot change what the search
// reads:
//
//   - Full and InputOnly: every gate's candidate powers depend only on
//     the original statistics (Sec. 4.2), so one engine construction
//     evaluates each candidate set once and picks for both objectives;
//     each objective's choices then commit on their own fork of that
//     engine.
//   - DelayRule: the choice ignores power, so the worst report is the
//     best one over a clone of its circuit.
//   - DelayNeutral: each choice depends on the arrivals of upstream
//     choices, which differ between the objectives, so it runs two
//     passes.
func BestAndWorst(c *circuit.Circuit, pi map[string]stoch.Signal, opt Options) (best, worst *Report, err error) {
	workers, err := check(c, opt)
	if err != nil {
		return nil, nil, err
	}
	switch opt.Mode {
	case Full, InputOnly:
		return bestAndWorstPower(c.Clone(), pi, opt, workers)
	case DelayRule:
		opt.Objective = Minimize
		best, err = optimize(c.Clone(), pi, opt, workers)
		if err != nil {
			return nil, nil, err
		}
		w := *best
		w.Circuit = best.Circuit.Clone()
		return best, &w, nil
	}
	opt.Objective = Minimize
	if best, err = optimize(c.Clone(), pi, opt, workers); err != nil {
		return nil, nil, err
	}
	opt.Objective = Maximize
	if worst, err = optimize(c.Clone(), pi, opt, workers); err != nil {
		return nil, nil, err
	}
	return best, worst, nil
}
