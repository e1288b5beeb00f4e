package gen

import (
	"testing"

	"repro/internal/library"
	"repro/internal/sim"
	"repro/internal/stoch"
)

// TestOracleEvalEmbedded pins the oracle's fixpoint evaluation against
// circuit.Eval exhaustively on the narrow embedded classics.
func TestOracleEvalEmbedded(t *testing.T) {
	lib := library.Default()
	for _, name := range embeddedSeedNames() {
		c, _ := embeddedSeed(t, name, lib)
		if len(c.Inputs) > 10 {
			continue
		}
		n := len(c.Inputs)
		in := make(map[string]bool, n)
		for m := uint(0); m < 1<<n; m++ {
			for i, name := range c.Inputs {
				in[name] = m>>i&1 == 1
			}
			want, err := c.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OracleEval(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range c.Outputs {
				if got[o] != want[o] {
					t.Fatalf("%s: output %s differs at minterm %d", name, o, m)
				}
			}
		}
	}
}

func TestOracleEvalMissingInput(t *testing.T) {
	lib := library.Default()
	c, _ := embeddedSeed(t, "c17", lib)
	if _, err := OracleEval(c, map[string]bool{}); err == nil {
		t.Fatal("missing inputs accepted")
	}
}

func TestOracleRunRejectsBadArgs(t *testing.T) {
	lib := library.Default()
	c, _ := embeddedSeed(t, "c17", lib)
	prm := sim.DefaultParams()
	waves := map[string]*stoch.Waveform{}
	for _, in := range c.Inputs {
		waves[in] = &stoch.Waveform{}
	}
	if _, err := OracleRun(c, waves, 0, prm); err == nil {
		t.Fatal("zero horizon accepted")
	}
	delete(waves, c.Inputs[0])
	if _, err := OracleRun(c, waves, 1e-6, prm); err == nil {
		t.Fatal("missing waveform accepted")
	}
}
