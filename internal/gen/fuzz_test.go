package gen

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// The native fuzz targets mutate two things at once: a GNL netlist (byte-
// level mutation explores topologies and configuration orderings the
// generator never draws) and a harness seed (driving stimulus, mutation
// and trial randomness). Inputs that fail to parse as GNL fall back to
// the seeded generator, so every fuzz execution exercises a real circuit.
// Corpora are seeded from the embedded MCNC benchmarks.

func embeddedSeedNames() []string { return mcnc.EmbeddedNames() }

func embeddedSeed(t *testing.T, name string, lib *library.Library) (*circuit.Circuit, int64) {
	t.Helper()
	c, err := mcnc.Load(name, lib)
	if err != nil {
		t.Fatalf("embedded %s: %v", name, err)
	}
	return c, DeriveSeed(0, "embedded", name)
}

// fuzzBounds keeps one fuzz execution affordable: wider/deeper inputs are
// skipped, not truncated, so the fuzzer learns the boundary.
const (
	fuzzMaxGates  = 60
	fuzzMaxInputs = 20
)

// circuitFromFuzz turns a fuzz input into a circuit: parsed GNL when it
// parses, otherwise a generated circuit whose seed folds in the raw
// bytes (so byte mutations still reach new circuits).
func circuitFromFuzz(gnl string, seed int64, lib *library.Library) (*circuit.Circuit, Profile, int64) {
	if c, err := netlist.ReadGNL(strings.NewReader(gnl), lib); err == nil {
		if len(c.Gates) >= 1 && len(c.Gates) <= fuzzMaxGates && len(c.Inputs) <= fuzzMaxInputs {
			return c, DefaultProfile(), seed
		}
	}
	profiles := Profiles()
	p := profiles[int(uint64(seed)%uint64(len(profiles)))]
	gseed := DeriveSeed(seed, "fuzz-gen", gnl)
	c, err := Generate(p, gseed, lib)
	if err != nil {
		return nil, p, gseed
	}
	return c, p, gseed
}

func addSeeds(f *testing.F) {
	f.Helper()
	lib := library.Default()
	for _, name := range mcnc.EmbeddedNames() {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			f.Fatalf("embedded %s: %v", name, err)
		}
		f.Add(gnlOf(c), DeriveSeed(0, "embedded", name))
	}
	f.Add("", int64(1))
	f.Add("circuit tiny\ninputs a\noutputs z\ngate u1 inv y=z a=a\nend\n", int64(2))
}

func fuzzOpts(engines, incremental, optimize bool) CheckOptions {
	opts := DefaultCheckOptions()
	opts.Engines = engines
	opts.Incremental = incremental
	opts.Optimize = optimize
	// One execution must stay cheap: narrower exact-composition limit,
	// fewer random trials and mutation steps than the property sweep.
	opts.ExactInputLimit = 7
	opts.EquivTrials = 24
	opts.MutationSteps = 4
	return opts
}

// FuzzEngines cross-checks the compiled simulation engines against the
// naive oracle in every delay mode.
func FuzzEngines(f *testing.F) {
	addSeeds(f)
	lib := library.Default()
	opts := fuzzOpts(true, false, false)
	f.Fuzz(func(t *testing.T, gnl string, seed int64) {
		c, p, cseed := circuitFromFuzz(gnl, seed, lib)
		if c == nil {
			t.Skip("ungeneratable input")
		}
		if d := Check(c, p, cseed, opts); d != nil {
			_, d = Shrink(c, d, p, cseed, opts, 100)
			a, _ := d.Artifact().MarshalJSONL()
			t.Fatalf("%v\nreplay artifact:\n%s", d, a)
		}
	})
}

// FuzzIncremental pins the incremental power engine against full
// re-analysis under random configuration mutation.
func FuzzIncremental(f *testing.F) {
	addSeeds(f)
	lib := library.Default()
	opts := fuzzOpts(false, true, false)
	f.Fuzz(func(t *testing.T, gnl string, seed int64) {
		c, p, cseed := circuitFromFuzz(gnl, seed, lib)
		if c == nil {
			t.Skip("ungeneratable input")
		}
		if d := Check(c, p, cseed, opts); d != nil {
			_, d = Shrink(c, d, p, cseed, opts, 100)
			a, _ := d.Artifact().MarshalJSONL()
			t.Fatalf("%v\nreplay artifact:\n%s", d, a)
		}
	})
}

// FuzzOptimize verifies optimize-then-verify: functional equivalence,
// power accounting and parallel-search determinism.
func FuzzOptimize(f *testing.F) {
	addSeeds(f)
	lib := library.Default()
	opts := fuzzOpts(false, false, true)
	f.Fuzz(func(t *testing.T, gnl string, seed int64) {
		c, p, cseed := circuitFromFuzz(gnl, seed, lib)
		if c == nil {
			t.Skip("ungeneratable input")
		}
		if d := Check(c, p, cseed, opts); d != nil {
			_, d = Shrink(c, d, p, cseed, opts, 100)
			a, _ := d.Artifact().MarshalJSONL()
			t.Fatalf("%v\nreplay artifact:\n%s", d, a)
		}
	})
}
