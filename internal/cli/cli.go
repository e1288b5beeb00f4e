// Package cli holds the loading and configuration helpers shared by the
// command-line tools (lowpower, powerest, swsim, sweep, sweepd).
package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/library"
	"repro/internal/mapper"
	"repro/internal/netlist"
	"repro/internal/stoch"
	"repro/internal/sweep"
)

// LoadCircuit reads a netlist file, dispatching on the extension: .gnl is
// read natively, anything else is parsed as BLIF and mapped onto lib.
func LoadCircuit(path string, lib *library.Library) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCircuit(f, filepath.Ext(path), lib)
}

// ReadCircuit is LoadCircuit over a stream; ext selects the format
// (".gnl" or BLIF otherwise).
func ReadCircuit(r io.Reader, ext string, lib *library.Library) (*circuit.Circuit, error) {
	if strings.EqualFold(ext, ".gnl") {
		return netlist.ReadGNL(r, lib)
	}
	nw, err := netlist.ParseBLIF(r)
	if err != nil {
		return nil, err
	}
	return mapper.Map(nw, lib)
}

// InputStats resolves the primary-input statistics for a tool invocation:
// an explicit "net P D" file wins; otherwise scenario A or B statistics
// are drawn with the given seed. The returned map is checked to cover
// every primary input.
func InputStats(c *circuit.Circuit, statsFile, scenario string, seed int64) (map[string]stoch.Signal, error) {
	var stats map[string]stoch.Signal
	if statsFile != "" {
		f, err := os.Open(statsFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		stats, err = expt.ParseStats(f)
		if err != nil {
			return nil, err
		}
	} else {
		opt := expt.DefaultOptions()
		opt.Seed = seed
		sc := expt.ScenarioA
		switch strings.ToUpper(scenario) {
		case "A":
		case "B":
			sc = expt.ScenarioB
		default:
			return nil, fmt.Errorf("cli: unknown scenario %q (want A or B)", scenario)
		}
		stats = expt.InputStats(c, sc, opt)
	}
	for _, in := range c.Inputs {
		if _, ok := stats[in]; !ok {
			return nil, fmt.Errorf("cli: no statistics for primary input %q", in)
		}
	}
	return stats, nil
}

// SweepMatrix applies the job-matrix flags shared by sweep and sweepd to
// opt: comma-separated benchmarks, scenarios, modes and seeds, plus the
// S-column vector count and lane width. An empty bench or seeds list and
// a zero vectors or lanes keep opt's defaults; scenarios and modes must
// name at least one entry.
func SweepMatrix(opt *sweep.Options, bench, scenarios, modes, seeds string, vectors, lanes int) error {
	if bench != "" {
		opt.Benchmarks = splitTrim(bench)
	}
	opt.Scenarios = opt.Scenarios[:0]
	for _, s := range splitTrim(scenarios) {
		sc, err := sweep.ParseScenario(s)
		if err != nil {
			return err
		}
		opt.Scenarios = append(opt.Scenarios, sc)
	}
	if len(opt.Scenarios) == 0 {
		return fmt.Errorf("-scenarios %q names no scenario", scenarios)
	}
	opt.Modes = opt.Modes[:0]
	for _, s := range splitTrim(modes) {
		m, err := sweep.ParseMode(s)
		if err != nil {
			return err
		}
		opt.Modes = append(opt.Modes, m)
	}
	if len(opt.Modes) == 0 {
		return fmt.Errorf("-modes %q names no mode", modes)
	}
	for _, s := range splitTrim(seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", s, err)
		}
		opt.Seeds = append(opt.Seeds, v)
	}
	if vectors != 0 {
		if vectors < 1 {
			return fmt.Errorf("-vectors %d; need at least 1", vectors)
		}
		opt.Expt.SimVectors = vectors
	}
	if lanes != 0 {
		if lanes < 1 || lanes > stoch.MaxPackLanes {
			return fmt.Errorf("-lanes %d out of [1,%d]", lanes, stoch.MaxPackLanes)
		}
		opt.Expt.SimLanes = lanes
	}
	return nil
}

// splitTrim splits a comma-separated flag value, dropping empty fields.
func splitTrim(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
