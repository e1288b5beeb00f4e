package sim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
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
		gen := func() sim.Drawer {
			return sim.ExponentialDrawer(c.Inputs, stats, horizon, rand.New(rand.NewSource(seed)))
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

// TestDrawersMatchGenerators pins the drawers' rng order. From one seed,
// three streams must agree vector for vector: the drawers filling a
// multi-lane buffer (reset for a second block), GenerateWaveforms and
// GenerateClockedWaveforms, and the reference order — one
// Signal.Exponential or Signal.Clocked call per input, in input order,
// which is how every recorded golden drew its stimulus. The statistics
// include a constant input and a pinned one.
func TestDrawersMatchGenerators(t *testing.T) {
	inputs := []string{"a", "b", "c", "d", "e"}
	statsA := map[string]stoch.Signal{
		"a": {P: 0.5, D: 1e6}, "b": {P: 0.2, D: 3e5}, "c": {P: 0.5, D: 0},
		"d": {P: 1, D: 1e5}, "e": {P: 0.9, D: 2e6},
	}
	statsB := map[string]stoch.Signal{
		"a": {P: 0.5, D: 0.5}, "b": {P: 0.3, D: 0.4}, "c": {P: 0.5, D: 0},
		"d": {P: 0.7, D: 0.2}, "e": {P: 0.5, D: 1},
	}
	const (
		horizon = 2e-5
		cycles  = 50
		period  = 1e-7
		vectors = 6
	)
	scenarios := []struct {
		name   string
		drawer func(*rand.Rand) sim.Drawer
		gen    func(*rand.Rand) (map[string]*stoch.Waveform, error)
		ref    func(string, *rand.Rand) (*stoch.Waveform, error)
	}{
		{"A", func(rng *rand.Rand) sim.Drawer { return sim.ExponentialDrawer(inputs, statsA, horizon, rng) },
			func(rng *rand.Rand) (map[string]*stoch.Waveform, error) {
				return sim.GenerateWaveforms(inputs, statsA, horizon, rng)
			},
			func(in string, rng *rand.Rand) (*stoch.Waveform, error) { return statsA[in].Exponential(horizon, rng) }},
		{"B", func(rng *rand.Rand) sim.Drawer { return sim.ClockedDrawer(inputs, statsB, cycles, period, rng) },
			func(rng *rand.Rand) (map[string]*stoch.Waveform, error) {
				return sim.GenerateClockedWaveforms(inputs, statsB, cycles, period, rng)
			},
			func(in string, rng *rand.Rand) (*stoch.Waveform, error) {
				return statsB[in].Clocked(cycles, period, rng)
			}},
	}
	var b stoch.WaveBuffer
	for _, sc := range scenarios {
		for _, seed := range []int64{1, 2, 3} {
			draw := sc.drawer(rand.New(rand.NewSource(seed)))
			genRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for block := 0; block < 2; block++ {
				b.Reset(len(inputs))
				for range vectors {
					if err := draw(&b); err != nil {
						t.Fatal(err)
					}
					if err := b.EndLane(); err != nil {
						t.Fatal(err)
					}
				}
				for l := range vectors {
					gen, err := sc.gen(genRng)
					if err != nil {
						t.Fatal(err)
					}
					for i, in := range inputs {
						want, err := sc.ref(in, refRng)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gen[in], want) {
							t.Fatalf("scenario %s seed %d vector %d input %s: generator %+v, reference %+v",
								sc.name, seed, block*vectors+l, in, gen[in], want)
						}
						initial, events := b.Wave(l, i)
						if initial != want.Initial || !slices.Equal(events, want.Events) {
							t.Fatalf("scenario %s seed %d block %d lane %d input %s: drawer %v %v, reference %+v",
								sc.name, seed, block, l, in, initial, events, want)
						}
					}
				}
			}
		}
	}
	// A missing input fails the draw the way the generators fail.
	draw := sim.ExponentialDrawer([]string{"a", "zz"}, statsA, horizon, rand.New(rand.NewSource(1)))
	if err := draw(&b); err == nil || !strings.Contains(err.Error(), `no statistics for input "zz"`) {
		t.Errorf("drawer without statistics for an input: %v", err)
	}
}

// TestWaveBufferPoolConcurrent runs ReductionVectors concurrently on
// different circuits, at 64, 256 and 512 lanes, in zero and unit delay
// and under both scenarios' drawers, all drawing into the one package-level
// wave buffer pool and packing through the packers' pooled scratch. Every
// result must equal the same call made serially, bit for bit: a pooled
// buffer shared between two live blocks would mix their stimuli.
func TestWaveBufferPoolConcurrent(t *testing.T) {
	const (
		vectors = 600 // a partial last block at every width
		horizon = 2e-5
		cycles  = 40
		period  = 1e-7
	)
	type job struct {
		best, worst *circuit.Circuit
		drawer      func() sim.Drawer
		lanes       int
		horizon     float64
		prm         sim.Params
	}
	var jobs []job
	lib := library.Default()
	for ci, name := range []string{"c17", "rca8", "cm138a"} {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		statsA := make(map[string]stoch.Signal, len(c.Inputs))
		statsB := make(map[string]stoch.Signal, len(c.Inputs))
		for _, in := range c.Inputs {
			statsA[in] = stoch.Signal{P: 0.5, D: 3e5}
			statsB[in] = stoch.Signal{P: 0.5, D: 0.5}
		}
		best, worst, err := reorder.BestAndWorst(c, statsA, reorder.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(ci)
		for _, lanes := range []int{64, 256, 512} {
			for _, mode := range []sim.DelayMode{sim.ZeroDelay, sim.UnitDelay} {
				prm := sim.DefaultParams()
				prm.Mode = mode
				jobs = append(jobs,
					job{best.Circuit, worst.Circuit, func() sim.Drawer {
						return sim.ExponentialDrawer(c.Inputs, statsA, horizon, rand.New(rand.NewSource(seed)))
					}, lanes, horizon, prm},
					job{best.Circuit, worst.Circuit, func() sim.Drawer {
						return sim.ClockedDrawer(c.Inputs, statsB, cycles, period, rand.New(rand.NewSource(seed)))
					}, lanes, cycles * period, prm})
			}
		}
	}
	run := func(j job) (float64, error) {
		return sim.ReductionVectors(j.best, j.worst, j.drawer(), vectors, j.lanes, j.horizon, j.prm)
	}
	want := make([]float64, len(jobs))
	for k, j := range jobs {
		var err error
		if want[k], err = run(j); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 2
	got := make([]float64, rounds*len(jobs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = run(jobs[k%len(jobs)])
		}()
	}
	wg.Wait()
	for k, g := range got {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if w := want[k%len(jobs)]; g != w {
			j := jobs[k%len(jobs)]
			t.Errorf("job %d (%s, %d lanes, mode %v): concurrent %v, serial %v", k%len(jobs), j.best.Name, j.lanes, j.prm.Mode, g, w)
		}
	}
}
