// Command paper regenerates every table and figure of the reproduced
// paper (Musoll & Cortadella, DATE 1996):
//
//	paper table1              Table 1(b): the motivation gate under two activity cases
//	paper table2              Table 2: the cell library with configuration counts
//	paper table3 [flags]      Table 3: the benchmark sweep (columns G, M, S, D)
//	paper fig1                Figure 1(a): the four configurations of y=¬((a1+a2)b)
//	paper fig5                Figure 5: the pivot exploration trace
//	paper scenarios           Figure 6: the two input scenarios
//	paper rca [-bits n]       Section 1.1: ripple-carry carry-chain activity
//	paper rules               Section 5: the delay-rule vs power-rule conflict
//	paper glitches            Introduction: useless-transition share on rca8
//	paper all                 everything above
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/expt"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mapper"
	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = table1()
	case "table2":
		err = table2()
	case "table3":
		err = table3(args)
	case "fig1":
		err = fig1()
	case "fig5":
		err = fig5()
	case "scenarios":
		err = scenarios()
	case "rca":
		err = rca(args)
	case "glitches":
		err = glitches()
	case "rules":
		err = rules()
	case "all":
		err = all(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: paper {table1|table2|table3|fig1|fig5|scenarios|rca|rules|glitches|all} [flags]")
}

func table1() error {
	fmt.Println("Table 1(b) — power of the four configurations of y = ¬((a1+a2)·b)")
	fmt.Println("(relative to the last configuration in case (1); P = 0.5 on all inputs)")
	fmt.Println()
	res, err := expt.Table1(core.DefaultParams())
	if err != nil {
		return err
	}
	header := append([]string{"case", "D(a1)", "D(a2)", "D(b)"}, res.Labels...)
	header = append(header, "Red.", "best")
	var rows [][]string
	for ci, tc := range res.Cases {
		row := []string{tc.Name,
			fmt.Sprintf("%.0g", tc.Densities[0]),
			fmt.Sprintf("%.0g", tc.Densities[1]),
			fmt.Sprintf("%.0g", tc.Densities[2]),
		}
		for _, p := range res.Rel[ci] {
			row = append(row, fmt.Sprintf("%.2f", p))
		}
		row = append(row, fmt.Sprintf("%.0f%%", 100*res.Red[ci]), res.Labels[res.BestIdx[ci]])
		rows = append(rows, row)
	}
	fmt.Print(expt.FormatTable(header, rows))
	fmt.Println()
	fmt.Println("paper: case (1) saves 19% and case (2) saves 17%, with different winners.")
	fmt.Println("configurations:")
	for i, k := range res.Keys {
		fmt.Printf("  (%s) %s\n", res.Labels[i], k)
	}
	return nil
}

func table2() error {
	fmt.Println("Table 2 — gate library: configurations (#C) and layout instances")
	fmt.Println()
	header := []string{"gate", "#C", "instances", "transistors"}
	var rows [][]string
	for _, r := range library.Default().Table2() {
		inst := ""
		if r.Instances > 1 {
			labels := make([]string, r.Instances)
			for i := range labels {
				labels[i] = string(rune('A' + i))
			}
			inst = "[" + strings.Join(labels, ",") + "]"
		}
		rows = append(rows, []string{
			r.Name + inst,
			fmt.Sprint(r.Configs),
			fmt.Sprint(r.Instances),
			fmt.Sprint(r.Area),
		})
	}
	fmt.Print(expt.FormatTable(header, rows))
	return nil
}

func table3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	scenario := fs.String("scenario", "A", "input scenario: A or B")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all 39)")
	horizon := fs.Float64("horizon", 0, "scenario A simulation horizon in seconds (0 = default)")
	cycles := fs.Int("cycles", 0, "scenario B simulated cycles (0 = default)")
	seed := fs.Int64("seed", 0, "random seed (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := expt.DefaultOptions()
	if *horizon > 0 {
		opt.HorizonA = *horizon
	}
	if *cycles > 0 {
		opt.CyclesB = *cycles
	}
	if *seed != 0 {
		opt.Seed = *seed
	}
	sc, err := sweep.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	fmt.Printf("Table 3 — scenario %s (M: model reduction, S: simulated reduction, D: delay increase)\n\n", sc)
	rows, avg, err := expt.Run(sc, names, opt)
	if err != nil {
		return err
	}
	header := []string{"circuit", "G", "M", "S", "D"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Name, fmt.Sprint(r.Gates),
			fmt.Sprintf("%.1f%%", 100*r.ModelRed),
			fmt.Sprintf("%.1f%%", 100*r.SimRed),
			fmt.Sprintf("%+.1f%%", 100*r.DelayInc),
		})
	}
	out = append(out, []string{"average", "",
		fmt.Sprintf("%.1f%%", 100*avg.ModelRed),
		fmt.Sprintf("%.1f%%", 100*avg.SimRed),
		fmt.Sprintf("%+.1f%%", 100*avg.DelayInc),
	})
	fmt.Print(expt.FormatTable(header, out))
	p := expt.Paper()
	if sc == expt.ScenarioA {
		fmt.Printf("\npaper (scenario A): M %.0f%%, S %.0f%%, D +%.0f%%\n",
			100*p.ModelRedA, 100*p.SimRedA, 100*p.DelayIncA)
	} else {
		fmt.Printf("\npaper (scenario B): reduction roughly half of scenario A's %.0f%%\n", 100*p.SimRedA)
	}
	return nil
}

func fig1() error {
	fmt.Println("Figure 1(a) — the four configurations of y = ¬((a1+a2)·b)")
	fmt.Println("(pull-down serialized output→ground, pull-up power→output)")
	fmt.Println()
	g := expt.MotivationGate()
	for i, cfg := range g.AllConfigs() {
		fmt.Printf("  (%c) pd=%s  pu=%s\n", 'A'+i, cfg.PD, cfg.PU)
	}
	return nil
}

func fig5() error {
	fmt.Println("Figure 5 — exhaustive exploration (pivoting) on the motivation gate")
	fmt.Println()
	g := expt.MotivationGate()
	var trace []gate.ExploreStep
	configs := g.FindAllConfigs(&trace)
	fmt.Printf("start: %s\n", g.ConfigKey())
	for _, s := range trace {
		mark := "visited before (pruned)"
		if s.New {
			mark = "NEW"
		}
		fmt.Printf("  pivot on n%d -> %-40s %s\n", s.PivotNode, s.Config, mark)
	}
	fmt.Printf("\n%d distinct reorderings generated (Fig. 1 shows these four).\n", len(configs))
	return nil
}

func scenarios() error {
	fmt.Println("Figure 6 — the two input scenarios")
	fmt.Println()
	fmt.Println("Scenario A: the circuit is embedded in a larger digital system.")
	fmt.Println("  Primary-input probabilities are uniform in [0,1]; transition")
	fmt.Println("  densities are uniform in [0, 1e6] transitions/second.")
	fmt.Println()
	fmt.Println("Scenario B: the circuit is the whole system, latched at a fixed clock.")
	fmt.Println("  Primary inputs have P = 0.5 and D = 0.5 transitions per cycle")
	fmt.Println("  (10 MHz clock here). Latch and clock power are not counted,")
	fmt.Println("  as in the paper.")
	return nil
}

func rca(args []string) error {
	fs := flag.NewFlagSet("rca", flag.ContinueOnError)
	bits := fs.Int("bits", 8, "adder width")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("Section 1.1 — %d-bit ripple-carry adder carry-chain activity\n\n", *bits)
	nw, err := netlist.ParseBLIF(strings.NewReader(mcnc.RippleCarryAdderBLIF(*bits)))
	if err != nil {
		return err
	}
	c, err := mapper.Map(nw, library.Default())
	if err != nil {
		return err
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	stats, err := core.NetStatistics(c, pi)
	if err != nil {
		return err
	}
	fmt.Println("operand inputs: P = 0.5, D = 1e5 trans/s on every bit")
	fmt.Println()
	header := []string{"net", "P", "D (trans/s)"}
	var rows [][]string
	for i := 1; i < *bits; i++ {
		net := fmt.Sprintf("c%d", i)
		s, ok := stats[net]
		if !ok {
			continue
		}
		rows = append(rows, []string{net, fmt.Sprintf("%.3f", s.P), fmt.Sprintf("%.3g", s.D)})
	}
	if s, ok := stats["cout"]; ok {
		rows = append(rows, []string{"cout", fmt.Sprintf("%.3f", s.P), fmt.Sprintf("%.3g", s.D)})
	}
	fmt.Print(expt.FormatTable(header, rows))
	fmt.Println("\nequal equilibrium probabilities, rising transition density along the")
	fmt.Println("carry chain — probability alone cannot guide the optimization.")
	return nil
}

func rules() error {
	fmt.Println("Section 5 — delay rule vs low-power rule on a NAND2")
	fmt.Println()
	dprm := delay.DefaultParams()
	nand := library.Default().MustCell("nand2").Proto
	delayCfg, _, err := delay.DelayOptimal(nand, []float64{5e-9, 0}, 0, dprm)
	if err != nil {
		return err
	}
	powerCfg, err := core.BestConfig(nand, []stoch.Signal{{P: 0.5, D: 1e4}, {P: 0.5, D: 1e6}}, 0, core.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Println("pin a: arrives late (5 ns), quiet (1e4 trans/s)")
	fmt.Println("pin b: arrives early, hot (1e6 trans/s)")
	fmt.Println()
	fmt.Printf("delay-optimal configuration: pd=%s (late input near the output)\n", delayCfg.PD)
	fmt.Printf("power-optimal configuration: pd=%s (hot input near the output)\n", powerCfg.Gate.PD)
	if delayCfg.ConfigKey() != powerCfg.Gate.ConfigKey() {
		fmt.Println("\nthe two objectives pick different orderings — the conflict the")
		fmt.Println("paper reports as the average delay increase in Table 3.")
	}
	return nil
}

func glitches() error {
	fmt.Println("Introduction — useless signal transitions on the 8-bit ripple-carry adder")
	fmt.Println("(latched 10 MHz inputs; unit-delay simulation vs zero-delay functional need)")
	fmt.Println()
	c, err := mcnc.Load("rca8", library.Default())
	if err != nil {
		return err
	}
	stats := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.5, D: 0.5} // transitions per cycle
	}
	const period = 100e-9
	const cycles = 2000
	rng := rand.New(rand.NewSource(8))
	waves, err := sim.GenerateClockedWaveforms(c.Inputs, stats, cycles, period, rng)
	if err != nil {
		return err
	}
	rep, err := sim.Glitches(c, waves, cycles*period, sim.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Printf("gate-output transitions: %d\n", rep.TotalGateTrans)
	fmt.Printf("useless (glitch) share:  %d (%.1f%%)\n", rep.Useless, 100*rep.Fraction)
	fmt.Println()
	fmt.Println("the paper's premise: useless transitions account for a large fraction")
	fmt.Println("of dynamic power, so input switching activity must drive optimization.")
	return nil
}

func all(args []string) error {
	steps := []func() error{table1, table2, fig1, fig5, scenarios, rules, glitches}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println()
	}
	if err := rca(nil); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println()
	if err := table3(append([]string{"-scenario", "A"}, args...)); err != nil {
		return err
	}
	fmt.Println()
	return table3(append([]string{"-scenario", "B"}, args...))
}
