// Command swsim measures the power of a netlist by switch-level
// simulation (the reproduction's SLS stand-in): exponential input
// waveforms, transistor-level gate resolution, ½CV² per node transition.
//
// The circuit runs on the compiled bit-parallel engine: Monte Carlo
// vectors packed into register blocks of -lanes bits — 64 per machine
// word, 256/512 via the wide kernels. Zero delay runs the levelized
// program, unit/elmore the timed program on an integer tick grid; -tick
// overrides the automatic resolution. -vcd dumps the waveforms of a
// single vector.
//
// Usage:
//
//	swsim -in circuit.blif [-stats file | -scenario A|B] [-horizon s] [-seed n]
//	      [-delay unit|elmore|zero] [-vectors n] [-lanes n] [-tick s]
//	      [-vcd out.vcd]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/circuit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/sim"
	"repro/internal/stoch"
)

func main() {
	in := flag.String("in", "", "input netlist (.blif or .gnl)")
	statsFile := flag.String("stats", "", "input statistics file (net P D per line)")
	scenario := flag.String("scenario", "A", "scenario A or B when -stats is absent")
	horizon := flag.Float64("horizon", 5e-4, "simulated seconds (per vector)")
	seed := flag.Int64("seed", 1996, "waveform seed")
	delayMode := flag.String("delay", "unit", "gate delay model: unit, elmore or zero")
	vectors := flag.Int("vectors", 0, "Monte Carlo vectors (default: one register block of -lanes; 1 with -vcd)")
	lanes := flag.Int("lanes", 0, "register-block lane width, 1..512 (0 = 64, one machine word)")
	tick := flag.Float64("tick", 0, "timed-simulation tick in seconds (0 = auto: the unit delay, or the fastest Elmore gate delay / 4)")
	vcd := flag.String("vcd", "", "write a VCD waveform dump of a single vector to this file")
	flag.Parse()
	if err := run(*in, *statsFile, *scenario, *horizon, *seed, *delayMode, *vectors, *lanes, *tick, *vcd); err != nil {
		fmt.Fprintln(os.Stderr, "swsim:", err)
		os.Exit(1)
	}
}

func run(in, statsFile, scenario string, horizon float64, seed int64, delayMode string, vectors, lanes int, tick float64, vcdPath string) error {
	if in == "" {
		return fmt.Errorf("missing -in")
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
	prm := sim.DefaultParams()
	switch delayMode {
	case "unit":
		prm.Mode = sim.UnitDelay
	case "elmore":
		prm.Mode = sim.ElmoreDelay
	case "zero":
		prm.Mode = sim.ZeroDelay
	default:
		return fmt.Errorf("unknown -delay %q", delayMode)
	}
	if tick < 0 {
		return fmt.Errorf("-tick %g is negative", tick)
	}
	if tick > 0 && prm.Mode == sim.ZeroDelay {
		return fmt.Errorf("-tick applies to timed simulation: pass -delay unit or elmore")
	}
	prm.Tick = tick
	if vectors < 0 {
		return fmt.Errorf("-vectors %d must be positive", vectors)
	}
	if lanes < 0 || lanes > stoch.MaxPackLanes {
		return fmt.Errorf("-lanes %d out of [1,%d]", lanes, stoch.MaxPackLanes)
	}
	if lanes == 0 {
		lanes = stoch.MaxLanes
	}
	if vectors == 0 {
		vectors = lanes
		if vcdPath != "" {
			vectors = 1
		}
	}

	rng := rand.New(rand.NewSource(seed))
	var res *sim.Result
	if vcdPath != "" {
		if vectors != 1 {
			return fmt.Errorf("-vcd records a single run: -vectors must be 1")
		}
		waves, werr := sim.GenerateWaveforms(c.Inputs, pi, horizon, rng)
		if werr != nil {
			return werr
		}
		var tr *sim.Trace
		res, tr, err = sim.RunTrace(c, waves, horizon, prm)
		if err != nil {
			return err
		}
		f, ferr := os.Create(vcdPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if err := tr.WriteVCD(f, c.Name); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", vcdPath)
	} else {
		res, err = runVectors(c, pi, horizon, vectors, lanes, rng, prm)
		if err != nil {
			return err
		}
	}
	model, err := core.AnalyzeCircuit(c, pi, prm.Cap)
	if err != nil {
		return err
	}
	fmt.Printf("circuit %s: %d vector(s) of %.3g s, %d steps\n",
		c.Name, vectors, horizon, res.Events)
	fmt.Printf("measured power: %.4g W (%d internal-node flips, %d output flips)\n",
		res.Power, res.InternalFlips, res.OutputFlips)
	fmt.Printf("model power:    %.4g W (ratio %.2f)\n", model.Power, res.Power/model.Power)
	return nil
}

// runVectors compiles the circuit once (the levelized program under zero
// delay, the timed program otherwise) and evaluates ceil(n/width) packed
// register blocks, folding counts and averaging power across all vectors.
func runVectors(c *circuit.Circuit, pi map[string]stoch.Signal, horizon float64, vectors, width int, rng *rand.Rand, prm sim.Params) (*sim.Result, error) {
	var runBatch func(lanes int) (*sim.BitResult, error)
	if prm.Mode == sim.ZeroDelay {
		prog, err := sim.Compile(c, prm)
		if err != nil {
			return nil, err
		}
		runBatch = func(lanes int) (*sim.BitResult, error) {
			stim, err := sim.GeneratePackedWaveforms(c.Inputs, pi, horizon, lanes, rng)
			if err != nil {
				return nil, err
			}
			return prog.Run(stim)
		}
	} else {
		prog, err := sim.CompileTimed(c, prm)
		if err != nil {
			return nil, err
		}
		runBatch = func(lanes int) (*sim.BitResult, error) {
			laneWaves, err := sim.GenerateLaneWaveforms(c.Inputs, pi, horizon, lanes, rng)
			if err != nil {
				return nil, err
			}
			stim, err := prog.PackTimed(laneWaves, horizon)
			if err != nil {
				return nil, err
			}
			return prog.Run(stim)
		}
	}
	total := &sim.Result{Horizon: horizon}
	for done := 0; done < vectors; {
		lanes := vectors - done
		if lanes > width {
			lanes = width
		}
		br, err := runBatch(lanes)
		if err != nil {
			return nil, err
		}
		total.Accumulate(&br.Result)
		done += lanes
	}
	total.Power = total.Energy / (float64(vectors) * horizon)
	return total, nil
}
