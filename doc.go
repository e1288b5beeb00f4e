// Package repro is a from-scratch Go reproduction of E. Musoll and
// J. Cortadella, "Optimizing CMOS Circuits for Low Power using Transistor
// Reordering" (DATE 1996), grown into a concurrent experimentation
// system around the paper's pipeline.
//
// The package is a thin facade over the internal implementation:
//
//   - internal/core — the paper's contribution: a power model of static
//     CMOS gates that includes the switching activity of internal nodes,
//     plus the incremental analysis engine (core.Incremental) that keeps
//     a circuit's power current under local mutation by re-evaluating
//     only fan-out cones.
//   - internal/reorder — the greedy single-traversal optimizer (Fig. 3),
//     with four search modes (full, input-only, delay-rule,
//     delay-neutral), built on the incremental engine: one gate-model
//     evaluation per accepted move.
//   - internal/gate, internal/sp — transistor graphs, H/G path functions,
//     exhaustive reordering enumeration (Figs. 2, 4, 5).
//   - internal/library — the Table 2 Sea-of-Gates cell library.
//   - internal/netlist, internal/mapper — hand-rolled BLIF/GNL parsing
//     (docs/gnl.md describes GNL) and technology mapping.
//   - internal/sim — the switch-level power simulator (the SLS
//     stand-in): compiled bit-parallel engines, zero-delay and timed
//     (unit or Elmore delay), 64 Monte Carlo vectors per word and up to
//     512 per register block.
//   - internal/gen — the naive reference oracle every compiled path is
//     checked against, a random circuit generator and the differential
//     harness.
//   - internal/delay — Elmore stack delays and static timing analysis.
//   - internal/mcnc, internal/expt — benchmarks and the Table 1/2/3
//     experiment harness.
//   - internal/sweep — the concurrent sweep engine: benchmark × scenario
//     × mode × seed jobs on a bounded worker pool with deterministic
//     per-job seeding, context cancellation and JSONL streaming.
//
// A typical single-circuit flow:
//
//	lib := repro.DefaultLibrary()
//	c, err := repro.LoadBenchmark("rca8", lib)
//	stats := repro.UniformInputs(c, 0.5, 1e5)
//	rep, err := repro.Optimize(c, stats, repro.DefaultOptimizeOptions())
//	fmt.Printf("power %.3g → %.3g W\n", rep.PowerBefore, rep.PowerAfter)
//
// And the experiment engine:
//
//	opt := repro.DefaultSweepOptions()
//	opt.Benchmarks = []string{"rca8", "alu2"}
//	sum, err := repro.RunSweep(context.Background(), opt)
//	fmt.Print(sum.AggregateTable())
//
// See README.md for the command-line tools (cmd/paper, cmd/sweep,
// cmd/lowpower, cmd/powerest, cmd/swsim, cmd/gatelib) and
// ARCHITECTURE.md for how the layers fit together.
package repro
