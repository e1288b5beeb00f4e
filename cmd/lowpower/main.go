// Command lowpower optimizes a combinational netlist for low power by
// transistor reordering — the paper's Figure 3 flow as a tool.
//
// Usage:
//
//	lowpower -in circuit.blif [-out optimized.gnl] [flags]
//
// Input may be BLIF (.names/.gate; mapped onto the Table 2 library) or
// GNL. Input statistics come from -stats (a "net P D" file) or from a
// scenario (-scenario A|B). The optimized circuit is written as GNL with
// the chosen configuration per gate.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/circuit"

	"repro/internal/cli"
	"repro/internal/library"
	"repro/internal/netlist"
	"repro/internal/reorder"
	"repro/internal/sweep"
)

func main() {
	in := flag.String("in", "", "input netlist (.blif or .gnl)")
	out := flag.String("out", "", "output netlist (.gnl); default stdout")
	statsFile := flag.String("stats", "", "input statistics file (net P D per line)")
	scenario := flag.String("scenario", "A", "scenario A or B when -stats is absent")
	seed := flag.Int64("seed", 1996, "seed for scenario A statistics")
	mode := flag.String("mode", "full", "search space: full, input-only, delay-rule or delay-neutral")
	objective := flag.String("objective", "min", "min or max (max yields the worst reordering)")
	workers := flag.Int("workers", 0, "parallel candidate-search workers (0 = GOMAXPROCS, 1 = serial); results are identical for any value")
	verify := flag.Bool("verify", false, "check functional equivalence of the result")
	flag.Parse()
	if err := run(*in, *out, *statsFile, *scenario, *seed, *mode, *objective, *workers, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "lowpower:", err)
		os.Exit(1)
	}
}

func run(in, out, statsFile, scenario string, seed int64, mode, objective string, workers int, verify bool) error {
	if in == "" {
		return fmt.Errorf("missing -in")
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d is negative", workers)
	}
	lib := library.Default()
	c, err := cli.LoadCircuit(in, lib)
	if err != nil {
		return err
	}
	pi, err := cli.InputStats(c, statsFile, scenario, seed)
	if err != nil {
		return err
	}
	opt := reorder.DefaultOptions()
	opt.Workers = workers
	if opt.Mode, err = sweep.ParseMode(mode); err != nil {
		return fmt.Errorf("-mode: %w", err)
	}
	switch objective {
	case "min":
		opt.Objective = reorder.Minimize
	case "max":
		opt.Objective = reorder.Maximize
	default:
		return fmt.Errorf("unknown -objective %q", objective)
	}
	rep, err := reorder.Optimize(c, pi, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d gates, %d reconfigured; model power %.4g W -> %.4g W (%.1f%% reduction)\n",
		c.Name, len(c.Gates), rep.GatesChanged, rep.PowerBefore, rep.PowerAfter, 100*rep.Reduction())
	if verify {
		var ok bool
		var witness string
		if len(c.Inputs) <= 16 {
			ok, witness, err = circuit.Equivalent(c, rep.Circuit)
		} else {
			ok, witness, err = circuit.EquivalentRandom(c, rep.Circuit, 4096, rand.New(rand.NewSource(seed)))
		}
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("verification FAILED: %s", witness)
		}
		fmt.Fprintln(os.Stderr, "verification passed: reordered circuit is functionally equivalent")
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return netlist.WriteGNL(w, rep.Circuit)
}
