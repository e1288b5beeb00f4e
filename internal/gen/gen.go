// Package gen is the repository's differential-verification backbone: a
// seeded random circuit generator, a deliberately naive reference
// simulator (oracle.go), and a cross-engine differential harness
// (diff.go) with shrink-on-failure (shrink.go) and a parallel soak runner
// (soak.go, driven by cmd/fuzzcheck and the native fuzz targets).
//
// The paper's central claims are invariants — reordering never changes a
// circuit's logic function, only its switching power; the incremental
// power engine must match full re-analysis; the two compiled simulation
// engines (zero-delay and timed) must agree with the naive oracle
// transition for transition — and invariant-shaped claims are
// what generative differential testing verifies at scale. The embedded
// MCNC benchmarks pin a handful of topologies; this package samples the
// space the benchmarks miss: deep series chains, reconvergent fan-out,
// multi-output tap points, non-canonical transistor orderings and
// pathological Elmore delay spreads.
//
// All randomness is threaded through FNV-derived sub-seeds (DeriveSeed),
// so every generated circuit, stimulus and equivalence trial is a pure
// function of (profile, seed) — reproducible across worker counts and
// replayable from a failure artifact.
package gen

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/stoch"
)

// Profile bundles every RNG parameter of circuit generation in one place,
// so the bounded go-test sweep, the fuzz targets and cmd/fuzzcheck soak
// runs draw from the same distributions (and a failure seed means the
// same circuit everywhere).
type Profile struct {
	Name string

	// Topology ranges (inclusive). Inputs stay small enough for exact
	// functional composition when MaxInputs ≤ logic.MaxVars.
	MinInputs, MaxInputs int
	MinGates, MaxGates   int

	// Cells is the gate mix: names drawn uniformly. Empty means the full
	// default library.
	Cells []string

	// DepthBias is the probability that a gate pin connects to one of the
	// most recently created nets instead of a uniformly random one — high
	// values grow deep series chains, low values create wide reconvergent
	// fan-out (many gates sharing old nets).
	DepthBias float64

	// ConfigProb is the probability a generated gate gets a random
	// non-canonical transistor ordering (one of Cell.Proto.AllConfigs)
	// instead of the canonical configuration — exercising the pd=/pu=
	// GNL round-trip and configuration-sensitive simulation paths.
	ConfigProb float64

	// TapProb is the probability that an internal (already read) net is
	// additionally exposed as a primary output — multi-output observation
	// points on reconvergent regions.
	TapProb float64

	// Input-statistics ranges for generated stimulus and analysis:
	// equilibrium probability uniform in [PLow, PHigh], transition density
	// uniform in [DLow, DHigh] transitions/second.
	PLow, PHigh float64
	DLow, DHigh float64
}

// Validate reports whether the profile can generate circuits.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("gen: profile needs a name")
	}
	if p.MinInputs < 1 || p.MaxInputs < p.MinInputs {
		return fmt.Errorf("gen: profile %s: bad input range [%d,%d]", p.Name, p.MinInputs, p.MaxInputs)
	}
	if p.MinGates < 1 || p.MaxGates < p.MinGates {
		return fmt.Errorf("gen: profile %s: bad gate range [%d,%d]", p.Name, p.MinGates, p.MaxGates)
	}
	if p.DepthBias < 0 || p.DepthBias > 1 || p.ConfigProb < 0 || p.ConfigProb > 1 || p.TapProb < 0 || p.TapProb > 1 {
		return fmt.Errorf("gen: profile %s: probabilities out of [0,1]", p.Name)
	}
	if p.PLow < 0 || p.PHigh > 1 || p.PHigh < p.PLow {
		return fmt.Errorf("gen: profile %s: bad probability range [%v,%v]", p.Name, p.PLow, p.PHigh)
	}
	if p.DLow < 0 || p.DHigh < p.DLow {
		return fmt.Errorf("gen: profile %s: bad density range [%v,%v]", p.Name, p.DLow, p.DHigh)
	}
	return nil
}

// DefaultProfile is the balanced profile shared by the property sweep,
// the fuzz targets' generated path and cmd/fuzzcheck soak runs: full cell
// mix, moderate depth, a healthy share of non-canonical configurations
// and occasional output taps.
func DefaultProfile() Profile {
	return Profile{
		Name:      "balanced",
		MinInputs: 4, MaxInputs: 8,
		MinGates: 5, MaxGates: 28,
		DepthBias:  0.6,
		ConfigProb: 0.35,
		TapProb:    0.2,
		PLow:       0.05, PHigh: 0.95,
		DLow: 1e5, DHigh: 5e5,
	}
}

// DeepChainsProfile grows long series chains (high depth bias, stack-heavy
// cells) — the topology class where unit vs. Elmore delay spreads and
// glitch trains diverge most.
func DeepChainsProfile() Profile {
	return Profile{
		Name:      "deep-chains",
		MinInputs: 3, MaxInputs: 6,
		MinGates: 12, MaxGates: 40,
		Cells: []string{
			"inv", "nand2", "nand3", "nand4", "aoi21", "aoi31", "oai31", "aoi211",
		},
		DepthBias:  0.95,
		ConfigProb: 0.5,
		TapProb:    0.1,
		PLow:       0.1, PHigh: 0.9,
		DLow: 5e4, DHigh: 4e5,
	}
}

// WideReconvergentProfile creates broad, shallow circuits with heavy
// shared fan-out, reconvergence and many tapped outputs — the structures
// that stress event-ordering, pulse filtering and multi-output bookkeeping.
func WideReconvergentProfile() Profile {
	return Profile{
		Name:      "wide-reconvergent",
		MinInputs: 6, MaxInputs: 12,
		MinGates: 10, MaxGates: 36,
		Cells: []string{
			"inv", "nand2", "nor2", "nor3", "nor4", "oai21", "oai22", "aoi22",
			"oai221", "aoi221", "oai222", "aoi222",
		},
		DepthBias:  0.25,
		ConfigProb: 0.3,
		TapProb:    0.5,
		PLow:       0.02, PHigh: 0.98,
		DLow: 1e5, DHigh: 6e5,
	}
}

// Profiles returns the standard sweep set; the bounded property test and
// CI fuzz smoke cover every entry.
func Profiles() []Profile {
	return []Profile{DefaultProfile(), DeepChainsProfile(), WideReconvergentProfile()}
}

// ProfileByName resolves a profile from the standard set.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// DeriveSeed folds a base seed and a label path into a new deterministic
// seed with FNV-1a — the single seeding mechanism of the whole harness.
// Every consumer of randomness (topology, configurations, stimulus,
// random-equivalence trials) derives its own stream, so adding a consumer
// never perturbs the others and results are identical for any worker
// count.
func DeriveSeed(base int64, labels ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(base) >> (8 * i))
	}
	h.Write(b[:])
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return int64(h.Sum64())
}

// rngFor returns a rand.Rand seeded from DeriveSeed.
func rngFor(base int64, labels ...string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(base, labels...)))
}

func intIn(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Generate builds a random combinational circuit from (p, seed). The same
// pair always yields the same circuit; distinct sub-seeds drive topology
// and configuration choice.
func Generate(p Profile, seed int64, lib *library.Library) (*circuit.Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rngFor(seed, p.Name, "topology")
	cfgRng := rngFor(seed, p.Name, "configs")

	cellNames := p.Cells
	if len(cellNames) == 0 {
		cellNames = lib.Names()
	}
	cells := make([]*library.Cell, len(cellNames))
	for i, n := range cellNames {
		c, ok := lib.Cell(n)
		if !ok {
			return nil, fmt.Errorf("gen: profile %s: unknown cell %q", p.Name, n)
		}
		cells[i] = c
	}

	c := &circuit.Circuit{Name: fmt.Sprintf("%s-%d", p.Name, seed)}
	nPI := intIn(rng, p.MinInputs, p.MaxInputs)
	nGates := intIn(rng, p.MinGates, p.MaxGates)
	var nets []string
	for i := 0; i < nPI; i++ {
		n := fmt.Sprintf("pi%d", i)
		c.Inputs = append(c.Inputs, n)
		nets = append(nets, n)
	}
	// pickNet draws a driving net: with probability DepthBias from the
	// most recent third of the net list (building depth), else uniformly
	// (creating reconvergent shared fan-out).
	pickNet := func(exclude map[string]bool) (string, bool) {
		if len(exclude) >= len(nets) {
			return "", false
		}
		for try := 0; try < 64; try++ {
			var n string
			if rng.Float64() < p.DepthBias && len(nets) > nPI {
				lo := len(nets) - len(nets)/3 - 1
				n = nets[lo+rng.Intn(len(nets)-lo)]
			} else {
				n = nets[rng.Intn(len(nets))]
			}
			if !exclude[n] {
				return n, true
			}
		}
		// Pathological profile (e.g. DepthBias 1 with a tiny recent
		// window): fall back to the first unexcluded net.
		for _, n := range nets {
			if !exclude[n] {
				return n, true
			}
		}
		return "", false
	}
	used := map[string]bool{}
	for i := 0; i < nGates; i++ {
		cell := cells[rng.Intn(len(cells))]
		if len(cell.Inputs) > len(nets) {
			// Not enough distinct nets for this cell yet; an inverter
			// always fits (there is at least one primary input).
			cell = lib.MustCell("inv")
		}
		cfg := cell.Proto
		if p.ConfigProb > 0 && cfgRng.Float64() < p.ConfigProb {
			all := cell.Proto.AllConfigs()
			cfg = all[cfgRng.Intn(len(all))]
		}
		exclude := map[string]bool{}
		pins := make([]string, len(cfg.Inputs))
		for pi := range pins {
			n, ok := pickNet(exclude)
			if !ok {
				return nil, fmt.Errorf("gen: profile %s seed %d: cannot fill %d pins from %d nets",
					p.Name, seed, len(pins), len(nets))
			}
			pins[pi] = n
			exclude[n] = true
			used[n] = true
		}
		out := fmt.Sprintf("n%d", i)
		c.Gates = append(c.Gates, &circuit.Instance{
			Name: fmt.Sprintf("g%d", i),
			Cell: cfg,
			Pins: pins,
			Out:  out,
		})
		nets = append(nets, out)
	}
	// Outputs: every unread gate output, plus tapped internal nets.
	tapRng := rngFor(seed, p.Name, "taps")
	seenOut := map[string]bool{}
	for _, g := range c.Gates {
		if !used[g.Out] && !seenOut[g.Out] {
			c.Outputs = append(c.Outputs, g.Out)
			seenOut[g.Out] = true
		}
	}
	for _, g := range c.Gates {
		if used[g.Out] && !seenOut[g.Out] && tapRng.Float64() < p.TapProb {
			c.Outputs = append(c.Outputs, g.Out)
			seenOut[g.Out] = true
		}
	}
	if len(c.Outputs) == 0 {
		c.Outputs = append(c.Outputs, c.Gates[len(c.Gates)-1].Out)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("gen: profile %s seed %d: generated invalid circuit: %w", p.Name, seed, err)
	}
	return c, nil
}

// InputStats draws per-input signal statistics from the profile's ranges,
// deterministically from (p, seed).
func InputStats(c *circuit.Circuit, p Profile, seed int64) map[string]stoch.Signal {
	rng := rngFor(seed, p.Name, "stats")
	pi := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{
			P: p.PLow + (p.PHigh-p.PLow)*rng.Float64(),
			D: p.DLow + (p.DHigh-p.DLow)*rng.Float64(),
		}
	}
	return pi
}
