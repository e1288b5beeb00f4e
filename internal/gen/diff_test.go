package gen

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/netlist"
)

// sweepCircuits is the per-profile circuit count of the bounded property
// sweep: with the three standard profiles this runs ≥200 generated
// circuits through the full differential harness on every go test.
const sweepCircuits = 70

// TestDifferentialSweep is the acceptance tentpole: a bounded generated-
// circuit sweep across all standard profiles, pinning the two compiled
// simulation engines, incremental-vs-full analysis and optimize-then-
// verify against the naive oracle. Failures shrink to a minimal reproduction and report the
// replayable artifact.
func TestDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is the long property test")
	}
	lib := library.Default()
	opts := DefaultCheckOptions()
	perProfile := sweepCircuits
	if raceEnabled {
		perProfile = 10 // the -race pass hunts data races, not logic bugs
	}
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < perProfile; i++ {
				seed := DeriveSeed(20260730, "sweep", p.Name, string(rune('a'+i%26)), string(rune('0'+i/26)))
				c, err := Generate(p, seed, lib)
				if err != nil {
					t.Fatalf("circuit %d: %v", i, err)
				}
				if d := Check(c, p, seed, opts); d != nil {
					_, d = Shrink(c, d, p, seed, opts, 0)
					a, _ := d.Artifact().MarshalJSONL()
					t.Fatalf("circuit %d: %v\nreplay artifact:\n%s", i, d, a)
				}
			}
		})
	}
}

// TestCheckEmbeddedBenchmarks runs the full harness over every embedded
// MCNC classic — the corpus the fuzz targets are seeded from must be
// green.
func TestCheckEmbeddedBenchmarks(t *testing.T) {
	lib := library.Default()
	opts := DefaultCheckOptions()
	for _, name := range embeddedSeedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, seed := embeddedSeed(t, name, lib)
			if d := Check(c, DefaultProfile(), seed, opts); d != nil {
				t.Fatal(d)
			}
		})
	}
}

func TestReplayRoundTrip(t *testing.T) {
	lib := library.Default()
	p := DefaultProfile()
	seed := DeriveSeed(7, "replay")
	c, err := Generate(p, seed, lib)
	if err != nil {
		t.Fatal(err)
	}
	d := &Discrepancy{Check: "synthetic", Detail: "not a real failure", Profile: p.Name, Seed: seed, GNL: gnlOf(c)}
	a := d.Artifact()
	line, err := a.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(line), "\n") {
		t.Fatal("artifact line not newline-terminated")
	}
	// A healthy circuit replays clean: the artifact's GNL parses and the
	// full harness passes on it.
	got, err := Replay(a, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("synthetic artifact reproduced a failure: %v", got)
	}
	// The GNL inside the artifact must round-trip to the same circuit.
	c2, err := netlist.ReadGNL(strings.NewReader(a.GNL), lib)
	if err != nil {
		t.Fatal(err)
	}
	if ok, w, err := circuit.Equivalent(c, c2); err != nil || !ok {
		t.Fatalf("artifact GNL not equivalent: %v %s", err, w)
	}
}

func TestCheckRejectsInvalidCircuit(t *testing.T) {
	c := &circuit.Circuit{Name: "broken", Inputs: []string{"a"}, Outputs: []string{"ghost"}}
	d := Check(c, DefaultProfile(), 1, DefaultCheckOptions())
	if d == nil || d.Check != "validate" {
		t.Fatalf("invalid circuit not flagged: %v", d)
	}
}
