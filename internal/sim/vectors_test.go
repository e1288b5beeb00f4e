package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
)

// TestChunkWidthInvariance: the chunked drivers measure the same vectors
// at every block width. RunVectors' transition counts are identical at 1,
// 7, 64, 200 and 512 lanes, and its energy and ReductionVectors' ratio
// agree to rounding (each width sums the block energies in a different
// order), on three embedded circuits in all three delay modes.
func TestChunkWidthInvariance(t *testing.T) {
	const (
		vectors = 200
		horizon = 2e-5
		seed    = 7
	)
	widths := []int{1, 7, 64, 200, 512}
	modes := []struct {
		name string
		mode sim.DelayMode
	}{{"zero", sim.ZeroDelay}, {"unit", sim.UnitDelay}, {"elmore", sim.ElmoreDelay}}
	lib := library.Default()
	for _, name := range []string{"c17", "bcd7seg", "rca8"} {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		stats := make(map[string]stoch.Signal, len(c.Inputs))
		for _, in := range c.Inputs {
			stats[in] = stoch.Signal{P: 0.5, D: 3e5}
		}
		best, worst, err := reorder.BestAndWorst(c, stats, reorder.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// gen restarts the seeded stimulus stream for each measurement.
		gen := func() func() (map[string]*stoch.Waveform, error) {
			rng := rand.New(rand.NewSource(seed))
			return func() (map[string]*stoch.Waveform, error) {
				return sim.GenerateWaveforms(c.Inputs, stats, horizon, rng)
			}
		}
		for _, m := range modes {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				prm := sim.DefaultParams()
				prm.Mode = m.mode
				p, err := sim.CompileFor(c, prm)
				if err != nil {
					t.Fatal(err)
				}
				var ref *sim.BitResult
				var refRed float64
				for _, lanes := range widths {
					br, err := sim.RunVectors(p, gen(), vectors, lanes, horizon)
					if err != nil {
						t.Fatal(err)
					}
					red, err := sim.ReductionVectors(best.Circuit, worst.Circuit, gen(), vectors, lanes, horizon, prm)
					if err != nil {
						t.Fatal(err)
					}
					if br.Lanes != vectors || br.OutputFlips == 0 {
						t.Fatalf("%d lanes: %d vectors measured, %d output flips", lanes, br.Lanes, br.OutputFlips)
					}
					if ref == nil {
						ref, refRed = br, red
						continue
					}
					if br.InternalFlips != ref.InternalFlips || br.OutputFlips != ref.OutputFlips {
						t.Errorf("%d lanes: flips %d/%d, 1 lane %d/%d", lanes,
							br.InternalFlips, br.OutputFlips, ref.InternalFlips, ref.OutputFlips)
					}
					for net, n := range ref.NetTransitions {
						if br.NetTransitions[net] != n {
							t.Errorf("%d lanes: net %s %d transitions, 1 lane %d", lanes, net, br.NetTransitions[net], n)
						}
					}
					if !relClose(br.Energy, ref.Energy, 1e-12) {
						t.Errorf("%d lanes: energy %v, 1 lane %v", lanes, br.Energy, ref.Energy)
					}
					if !relClose(red, refRed, 1e-12) {
						t.Errorf("%d lanes: reduction %v, 1 lane %v", lanes, red, refRed)
					}
				}
			})
		}
	}
}
