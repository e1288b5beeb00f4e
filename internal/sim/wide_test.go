package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/stoch"
)

// wideLaneEquivalence is the W-plane register-file property check: on
// every embedded MCNC benchmark, one wide run over `lanes` Monte Carlo
// vectors must be bit-identical lane for lane to independent chunked runs
// of the same program, 64 lanes each and a partial last chunk when lanes
// is not a multiple of 64 — per-net transition counts,
// internal flips, output flips and per-lane energy (the per-lane energy
// sums walk the meter list in program order at every width, so even the
// floats match exactly). Both directions run through the same compiled
// program, so the pooled scratch must survive the width change between
// the wide pass and the chunked passes (the width-validation path in
// getScratch).
func wideLaneEquivalence(t *testing.T, prm Params, lanes int) {
	lib := library.Default()
	const horizon = 1e-4
	for _, name := range mcnc.EmbeddedNames() {
		t.Run(name, func(t *testing.T) {
			c, err := mcnc.Load(name, lib)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(name))*9001 + int64(lanes)))
			stats := make(map[string]stoch.Signal, len(c.Inputs))
			for _, in := range c.Inputs {
				stats[in] = stoch.Signal{P: 0.1 + 0.8*rng.Float64(), D: 1e5 + 4e5*rng.Float64()}
			}
			laneWaves, err := GenerateLaneWaveforms(c.Inputs, stats, horizon, lanes, rng)
			if err != nil {
				t.Fatal(err)
			}

			// One compiled program serves both the wide pass and the
			// chunked passes; only the stimulus width changes.
			var run func(waves []map[string]*stoch.Waveform) (*BitResult, error)
			if prm.Mode == ZeroDelay {
				prog, err := Compile(c, prm)
				if err != nil {
					t.Fatal(err)
				}
				run = func(waves []map[string]*stoch.Waveform) (*BitResult, error) {
					stim, err := stoch.PackWaveforms(c.Inputs, waves, horizon)
					if err != nil {
						return nil, err
					}
					return prog.RunLanes(stim)
				}
			} else {
				prog, err := CompileTimed(c, prm)
				if err != nil {
					t.Fatal(err)
				}
				run = func(waves []map[string]*stoch.Waveform) (*BitResult, error) {
					stim, err := prog.PackTimed(waves, horizon)
					if err != nil {
						return nil, err
					}
					return prog.RunLanes(stim)
				}
			}

			wide, err := run(laneWaves)
			if err != nil {
				t.Fatal(err)
			}
			if wide.Lanes != lanes {
				t.Fatalf("wide run reports %d lanes, want %d", wide.Lanes, lanes)
			}

			var chunkEnergy float64
			for lo := 0; lo < lanes; lo += stoch.MaxLanes {
				hi := min(lo+stoch.MaxLanes, lanes)
				ref, err := run(laneWaves[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				chunkEnergy += ref.Energy
				for o := 0; o < hi-lo; o++ {
					l := lo + o
					for net, row := range ref.LaneNetTransitions {
						if wide.LaneNetTransitions[net][l] != row[o] {
							t.Fatalf("lane %d net %s: wide %d transitions, 64-lane chunk %d",
								l, net, wide.LaneNetTransitions[net][l], row[o])
						}
					}
					for net, row := range wide.LaneNetTransitions {
						if row[l] != ref.LaneNetTransitions[net][o] {
							t.Fatalf("lane %d net %s: wide %d transitions, 64-lane chunk %d",
								l, net, row[l], ref.LaneNetTransitions[net][o])
						}
					}
					if wide.LaneInternalFlips[l] != ref.LaneInternalFlips[o] {
						t.Fatalf("lane %d: internal flips %d wide vs %d chunked",
							l, wide.LaneInternalFlips[l], ref.LaneInternalFlips[o])
					}
					if wide.LaneOutputFlips[l] != ref.LaneOutputFlips[o] {
						t.Fatalf("lane %d: output flips %d wide vs %d chunked",
							l, wide.LaneOutputFlips[l], ref.LaneOutputFlips[o])
					}
					if wide.LaneEnergy[l] != ref.LaneEnergy[o] {
						t.Fatalf("lane %d: energy %g wide vs %g chunked (want bit-identical)",
							l, wide.LaneEnergy[l], ref.LaneEnergy[o])
					}
				}
			}
			// Totals fold the same per-meter counts, but the FP summation
			// order differs across widths — compare with a tolerance.
			if math.Abs(wide.Energy-chunkEnergy) > 1e-9*math.Max(chunkEnergy, 1e-30) {
				t.Fatalf("total energy %g wide, %g summed over chunks", wide.Energy, chunkEnergy)
			}
			if wide.OutputFlips == 0 {
				t.Fatal("no output activity: the equivalence check is vacuous")
			}
		})
	}
}

// TestWideLaneEquivalenceZeroDelay pins the 256-lane (W=4) zero-delay
// engine, one four-plane kernel pass per dense step, to the one-word
// engine on every embedded benchmark.
func TestWideLaneEquivalenceZeroDelay(t *testing.T) {
	wideLaneEquivalence(t, zeroParams(), 4*stoch.MaxLanes)
}

// TestWideLaneEquivalenceUnitDelay pins the 256-lane timed engine, which
// visits a gate's four words one at a time with per-word dirty and fire
// masks and schedules per word on one wheel, to its 64-lane runs.
func TestWideLaneEquivalenceUnitDelay(t *testing.T) {
	wideLaneEquivalence(t, DefaultParams(), 4*stoch.MaxLanes)
}

// TestWideLaneEquivalenceElmoreDelay does the same under heterogeneous
// Elmore delays, where multi-tick scheduling and the two-level agenda
// sweep are actually exercised.
func TestWideLaneEquivalenceElmoreDelay(t *testing.T) {
	prm := DefaultParams()
	prm.Mode = ElmoreDelay
	wideLaneEquivalence(t, prm, 4*stoch.MaxLanes)
}

// allModesLaneEquivalence runs the property in all three delay modes.
func allModesLaneEquivalence(t *testing.T, lanes int) {
	zero := zeroParams()
	unit := DefaultParams()
	elmore := DefaultParams()
	elmore.Mode = ElmoreDelay
	t.Run("zero", func(t *testing.T) { wideLaneEquivalence(t, zero, lanes) })
	t.Run("unit", func(t *testing.T) { wideLaneEquivalence(t, unit, lanes) })
	t.Run("elmore", func(t *testing.T) { wideLaneEquivalence(t, elmore, lanes) })
}

// TestWideLaneEquivalence512 runs the full three-mode property at the
// 512-lane (W=8) maximum width, where two four-plane kernel passes and
// the top word of every mask boundary are in play.
func TestWideLaneEquivalence512(t *testing.T) {
	allModesLaneEquivalence(t, 8*stoch.MaxLanes)
}

// TestWideLaneEquivalencePartialBlocks runs the property at widths the
// four-plane kernel does not divide, as /v1/simulate produces when it
// streams a vector count through partial final blocks: 129 lanes (W=3,
// single-plane passes only, one live lane in the top word) and 448 lanes
// (W=7, one four-plane pass plus three single planes).
func TestWideLaneEquivalencePartialBlocks(t *testing.T) {
	for _, lanes := range []int{129, 448} {
		t.Run(fmt.Sprint(lanes), func(t *testing.T) { allModesLaneEquivalence(t, lanes) })
	}
}

// TestScratchPoolWidthReuse interleaves widths on one compiled program
// pair so a pooled scratch allocated at one width is always offered back
// at another: a stale-width buffer that slipped through would corrupt
// the register file (zero-delay) or the wheel bitmaps (timed). Results
// at every width must equal a fresh single-width run.
func TestScratchPoolWidthReuse(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1e-4
	rng := rand.New(rand.NewSource(515))
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	laneWaves, err := GenerateLaneWaveforms(c.Inputs, stats, horizon, stoch.MaxPackLanes, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode DelayMode
	}{{"zero", ZeroDelay}, {"unit", UnitDelay}, {"elmore", ElmoreDelay}} {
		mode := tc.mode
		prm := DefaultParams()
		prm.Mode = mode
		t.Run(tc.name, func(t *testing.T) {
			var run func(waves []map[string]*stoch.Waveform) float64
			if mode == ZeroDelay {
				prog, err := Compile(c, prm)
				if err != nil {
					t.Fatal(err)
				}
				run = func(waves []map[string]*stoch.Waveform) float64 {
					stim, err := stoch.PackWaveforms(c.Inputs, waves, horizon)
					if err != nil {
						t.Fatal(err)
					}
					e, err := prog.RunEnergy(stim)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
			} else {
				prog, err := CompileTimed(c, prm)
				if err != nil {
					t.Fatal(err)
				}
				run = func(waves []map[string]*stoch.Waveform) float64 {
					stim, err := prog.PackTimed(waves, horizon)
					if err != nil {
						t.Fatal(err)
					}
					e, err := prog.RunEnergy(stim)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
			}
			// Fresh-pool references, one per width.
			widths := []int{64, 256, 512, 128, 64, 512, 256, 128}
			want := map[int]float64{}
			for _, w := range []int{64, 128, 256, 512} {
				want[w] = run(laneWaves[:w])
			}
			// Interleave widths; each run's pooled scratch comes from a
			// different width than it was allocated at.
			for i, w := range widths {
				if got := run(laneWaves[:w]); got != want[w] {
					t.Fatalf("pass %d width %d: energy %g, want %g (scratch pool reused across widths)",
						i, w, got, want[w])
				}
			}
		})
	}
}

// TestRunEnergyZeroAlloc pins the pooled measurement path at every lane
// width: on the largest embedded benchmark, in all three delay modes and
// on its fused best/worst pair, a warmed RunEnergy call must not allocate
// — the scratch pool hands back a register file of the right width
// instead of building a new one.
func TestRunEnergyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	lib := library.Default()
	var c *circuit.Circuit
	for _, name := range mcnc.EmbeddedNames() {
		cc, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil || len(cc.Gates) > len(c.Gates) {
			c = cc
		}
	}
	const horizon = 1e-4
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		stats[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	laneWaves, err := GenerateLaneWaveforms(c.Inputs, stats, horizon, stoch.MaxPackLanes, rand.New(rand.NewSource(65)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DelayMode{ZeroDelay, UnitDelay, ElmoreDelay} {
		prm := DefaultParams()
		prm.Mode = mode
		for _, lanes := range []int{64, 256, 512} {
			t.Run(fmt.Sprintf("%s/%d", mode.name(), lanes), func(t *testing.T) {
				var runEnergy func() (float64, error)
				if mode == ZeroDelay {
					prog, err := Compile(c, prm)
					if err != nil {
						t.Fatal(err)
					}
					stim, err := stoch.PackWaveforms(c.Inputs, laneWaves[:lanes], horizon)
					if err != nil {
						t.Fatal(err)
					}
					runEnergy = func() (float64, error) { return prog.RunEnergy(stim) }
				} else {
					prog, err := CompileTimed(c, prm)
					if err != nil {
						t.Fatal(err)
					}
					stim, err := prog.PackTimed(laneWaves[:lanes], horizon)
					if err != nil {
						t.Fatal(err)
					}
					runEnergy = func() (float64, error) { return prog.RunEnergy(stim) }
				}
				assertZeroAlloc(t, runEnergy)
			})
		}
	}
	// The S column's fused best/worst program, on the circuit's full-mode
	// pair under unit delay.
	best, worst, err := reorder.BestAndWorst(c, stats, reorder.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pair, _, _, err := compileTimedPair(best.Circuit, worst.Circuit, DefaultParams())
	if err != nil || pair == nil {
		t.Fatalf("pair program %v, %v", pair, err)
	}
	for _, lanes := range []int{64, 256, 512} {
		t.Run(fmt.Sprintf("pair/%d", lanes), func(t *testing.T) {
			stim, err := pair.PackTimed(laneWaves[:lanes], horizon)
			if err != nil {
				t.Fatal(err)
			}
			var e [2]float64
			assertZeroAlloc(t, func() (float64, error) { return e[0], pair.runEnergies(stim, &e) })
		})
	}
}

// TestBlockLoopZeroAlloc pins ReductionVectors' steady state: once a few
// blocks have grown the wave buffer, the packers' pooled scratch and the
// engine's, drawing one more block, packing it and running it on the
// fused unit-delay pair (the body of ReductionVectors' block loop)
// allocates nothing, at 64 and 512 lanes, under both scenarios' drawers.
func TestBlockLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	c, err := mcnc.Load("rca8", library.Default())
	if err != nil {
		t.Fatal(err)
	}
	const (
		horizonA = 5e-5
		cyclesB  = 20
		periodB  = 1e-7
	)
	statsA := make(map[string]stoch.Signal, len(c.Inputs))
	statsB := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		statsA[in] = stoch.Signal{P: 0.5, D: 2e5}
		statsB[in] = stoch.Signal{P: 0.5, D: 0.5}
	}
	best, worst, err := reorder.BestAndWorst(c, statsA, reorder.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	scenarios := []struct {
		name    string
		horizon float64
		draw    Drawer
	}{
		{"A", horizonA, ExponentialDrawer(c.Inputs, statsA, horizonA, rng)},
		{"B", cyclesB * periodB, ClockedDrawer(c.Inputs, statsB, cyclesB, periodB, rng)},
	}
	for _, sc := range scenarios {
		measure, err := pairMeasure(best.Circuit, worst.Circuit, sc.horizon, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{64, 512} {
			t.Run(fmt.Sprintf("%s/%d", sc.name, lanes), func(t *testing.T) {
				var b stoch.WaveBuffer
				block := func() {
					if err := drawBlock(&b, sc.draw, len(c.Inputs), lanes); err != nil {
						t.Fatal(err)
					}
					if _, _, err := measure(&b); err != nil {
						t.Fatal(err)
					}
				}
				for range 3 {
					block()
				}
				if avg := testing.AllocsPerRun(10, block); avg != 0 {
					t.Fatalf("a warmed block allocates %.1f objects, want 0", avg)
				}
			})
		}
	}
}

// assertZeroAlloc warms a measurement path's scratch pool with one call,
// then fails if further calls allocate.
func assertZeroAlloc(t *testing.T, run func() (float64, error)) {
	t.Helper()
	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Fatalf("warmed run allocates %.1f objects/op, want 0", avg)
	}
}
