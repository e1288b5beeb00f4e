package stoch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomBlock draws one lane block for the packer property test: every
// (lane, input) waveform is exponential, clocked, empty or a burst of
// events on a coarse grid (same-instant pulses, no-op events, -0), and the
// first two kinds run past the horizon. Events per waveform shrink as the
// block grows so the naive references stay quick.
func randomBlock(rng *rand.Rand, inputs []string, lanes int, horizon float64) []map[string]*Waveform {
	perWave := max(1, min(30, 4000/(lanes*len(inputs))))
	sig := Signal{P: 0.2 + 0.6*rng.Float64(), D: float64(perWave) / horizon}
	cycle := horizon / float64(perWave*2)
	block := make([]map[string]*Waveform, lanes)
	for l := range block {
		block[l] = make(map[string]*Waveform, len(inputs))
		for _, in := range inputs {
			var w *Waveform
			var err error
			switch rng.Intn(4) {
			case 0:
				w, err = sig.Exponential(1.2*horizon, rng)
			case 1:
				w, err = Signal{P: 0.5, D: 0.5}.Clocked(perWave*5/2, cycle, rng)
			case 2:
				w = &Waveform{Initial: rng.Intn(2) == 0}
			default:
				w = &Waveform{Initial: rng.Intn(2) == 0}
				times := make([]float64, rng.Intn(perWave+1))
				for k := range times {
					times[k] = horizon * float64(rng.Intn(8)) / 7
					if times[k] == 0 && rng.Intn(2) == 0 {
						times[k] = math.Copysign(0, -1) // must pack as +0
					}
				}
				sort.Float64s(times)
				for _, tm := range times {
					w.Events = append(w.Events, Event{Time: tm, Value: rng.Intn(2) == 0})
				}
			}
			if err != nil {
				panic(err)
			}
			block[l][in] = w
		}
	}
	return block
}

// fillBuffer appends a block of waveform maps to b lane by lane, in input
// order, the way a generator draws into it.
func fillBuffer(b *WaveBuffer, inputs []string, block []map[string]*Waveform) {
	b.Reset(len(inputs))
	for _, lw := range block {
		for _, in := range inputs {
			b.AppendWaveform(lw[in])
		}
		if err := b.EndLane(); err != nil {
			panic(err)
		}
	}
}

// TestPackMatchesReference holds both packers to the naive references in
// reference_test.go on seeded random blocks: 1–32 inputs, 1–512 lanes
// (partial last words included), several tick widths per block (coarse
// ones collapse same-tick events) and guards from unaligned to wider than
// the horizon. The map adapters are held to the references, and the
// indexed cores (WaveBuffer.Pack and PackTimed) to the adapters, through
// one buffer reused across every trial, width and packer, so stale state
// from an earlier block would show.
func TestPackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const horizon = 1e-6
	laneCounts := []int{1, 63, 64, 65, MaxPackLanes}
	var buf WaveBuffer
	for trial := 0; trial < 40; trial++ {
		inputs := make([]string, 1+rng.Intn(32))
		for i := range inputs {
			inputs[i] = fmt.Sprintf("x%d", i)
		}
		lanes := 1 + rng.Intn(MaxPackLanes)
		if trial < len(laneCounts) {
			lanes = laneCounts[trial]
		}
		block := randomBlock(rng, inputs, lanes, horizon)
		name := fmt.Sprintf("trial %d (%d inputs, %d lanes)", trial, len(inputs), lanes)

		got, err := PackWaveforms(inputs, block, horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referencePackWaveforms(inputs, block, horizon)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: PackWaveforms differs from the reference", name)
		}
		fillBuffer(&buf, inputs, block)
		core, err := buf.Pack(inputs, horizon)
		if err != nil {
			t.Fatalf("%s: WaveBuffer.Pack: %v", name, err)
		}
		if !reflect.DeepEqual(core, got) {
			t.Fatalf("%s: WaveBuffer.Pack differs from PackWaveforms", name)
		}

		for _, tick := range []float64{horizon / 20, horizon / 997, horizon / 1e5} {
			horizonTicks := TicksIn(horizon, tick)
			for _, guard := range []int64{0, 1 + rng.Int63n(4), 1 + rng.Int63n(horizonTicks), horizonTicks + 1} {
				got, err := PackTimedWaveforms(inputs, block, horizon, tick, guard)
				if err != nil {
					t.Fatalf("%s tick %g guard %d: %v", name, tick, guard, err)
				}
				want, err := referencePackTimedWaveforms(inputs, block, horizon, tick, guard)
				if err != nil {
					t.Fatalf("%s tick %g guard %d: reference: %v", name, tick, guard, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s tick %g guard %d: PackTimedWaveforms differs from the reference", name, tick, guard)
				}
				core, err := buf.PackTimed(inputs, horizon, tick, guard)
				if err != nil {
					t.Fatalf("%s tick %g guard %d: WaveBuffer.PackTimed: %v", name, tick, guard, err)
				}
				if !reflect.DeepEqual(core, got) {
					t.Fatalf("%s tick %g guard %d: WaveBuffer.PackTimed differs from PackTimedWaveforms", name, tick, guard)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s tick %g guard %d: %v", name, tick, guard, err)
				}
			}
		}
	}
}

// benchBlock is a 64-lane, 16-input block shaped like the repository
// benchmark's sweep jobs on a 1 ns tick: scenario A draws exponential
// waveforms at 0.5 transitions per 100 ns over 50 µs, scenario B latches
// the inputs on a 100 ns clock for 200 cycles.
func benchBlock(scenario string) (inputs []string, lanes []map[string]*Waveform, horizon float64) {
	const period = 100e-9
	rng := rand.New(rand.NewSource(1))
	inputs = make([]string, 16)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("x%d", i)
	}
	horizon = 5e-5
	if scenario == "B" {
		horizon = 200 * period
	}
	lanes = make([]map[string]*Waveform, MaxLanes)
	for l := range lanes {
		lanes[l] = make(map[string]*Waveform, len(inputs))
		for _, in := range inputs {
			var w *Waveform
			var err error
			if scenario == "B" {
				w, err = Signal{P: 0.5, D: 0.5}.Clocked(200, period, rng)
			} else {
				w, err = Signal{P: 0.5, D: 0.5 / period}.Exponential(horizon, rng)
			}
			if err != nil {
				panic(err)
			}
			lanes[l][in] = w
		}
	}
	return inputs, lanes, horizon
}

// benchGuard is a settle window typical of the benchmark's circuits.
const benchTick, benchGuard = 1e-9, 20

var benchSink any

// BenchmarkPackTimed packs one reused wave buffer, the path the
// simulation drivers take: after the first pack it allocates nothing.
func BenchmarkPackTimed(b *testing.B) {
	for _, scenario := range []string{"A", "B"} {
		b.Run("scenario"+scenario, func(b *testing.B) {
			inputs, lanes, horizon := benchBlock(scenario)
			var buf WaveBuffer
			fillBuffer(&buf, inputs, lanes)
			b.ReportAllocs()
			for b.Loop() {
				ts, err := buf.PackTimed(inputs, horizon, benchTick, benchGuard)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = ts
			}
		})
	}
}

// BenchmarkPack is BenchmarkPackTimed for the zero-delay packer.
func BenchmarkPack(b *testing.B) {
	for _, scenario := range []string{"A", "B"} {
		b.Run("scenario"+scenario, func(b *testing.B) {
			inputs, lanes, horizon := benchBlock(scenario)
			var buf WaveBuffer
			fillBuffer(&buf, inputs, lanes)
			b.ReportAllocs()
			for b.Loop() {
				ps, err := buf.Pack(inputs, horizon)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = ps
			}
		})
	}
}

// FuzzPackMatchesReference holds both packers to the naive references in
// reference_test.go on small blocks decoded from the fuzz input, holds
// the indexed cores to the map adapters through one buffer reused across
// inputs, and checks that what they pack passes Validate. The first bytes pick 1–4
// inputs, 1–130 lanes (up to three words), a tick of horizon/1..24 and a
// guard of 0–3 ticks. Then each waveform takes a byte (bit 0: initial
// value, bits 1–3: event count) and one byte per event: bits 0–2 put the
// event at k·horizon/6 (k = 7 is past the horizon), bit 3 makes a time 0
// a -0 and bit 4 is the value. Times are sorted per waveform, so equal
// times, same-instant pulses and no-op events are all reachable; a short
// input leaves the remaining waveforms empty.
func FuzzPackMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 11, 1, 5, 0x11, 0x03, 0x08, 0x12})
	f.Add([]byte{3, 129, 5, 2, 7, 0x18, 0x00, 0x13, 0x13, 0x02, 0x17, 0x06, 0x15, 0x01, 0x14})
	f.Add([]byte{0, 63, 0, 0, 15, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00})
	var buf WaveBuffer
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		const horizon = 1e-6
		inputs := make([]string, 1+next()%4)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("x%d", i)
		}
		lanes := make([]map[string]*Waveform, 1+int(next())%130)
		tick := horizon / float64(1+next()%24)
		guard := int64(next() % 4)
		for l := range lanes {
			lanes[l] = make(map[string]*Waveform, len(inputs))
			for _, in := range inputs {
				h := next()
				w := &Waveform{Initial: h&1 != 0}
				for range h >> 1 & 7 {
					e := next()
					tm := horizon * float64(e&7) / 6
					if tm == 0 && e&8 != 0 {
						tm = math.Copysign(0, -1)
					}
					w.Events = append(w.Events, Event{Time: tm, Value: e&16 != 0})
				}
				sort.SliceStable(w.Events, func(a, b int) bool { return w.Events[a].Time < w.Events[b].Time })
				lanes[l][in] = w
			}
		}

		got, err := PackWaveforms(inputs, lanes, horizon)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referencePackWaveforms(inputs, lanes, horizon)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PackWaveforms differs from the reference:\n got %+v\nwant %+v", got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		fillBuffer(&buf, inputs, lanes)
		core, err := buf.Pack(inputs, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(core, got) {
			t.Fatalf("WaveBuffer.Pack differs from PackWaveforms:\n got %+v\nwant %+v", core, got)
		}

		gotT, err := PackTimedWaveforms(inputs, lanes, horizon, tick, guard)
		if err != nil {
			t.Fatal(err)
		}
		wantT, err := referencePackTimedWaveforms(inputs, lanes, horizon, tick, guard)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("PackTimedWaveforms differs from the reference:\n got %+v\nwant %+v", gotT, wantT)
		}
		if err := gotT.Validate(); err != nil {
			t.Fatal(err)
		}
		coreT, err := buf.PackTimed(inputs, horizon, tick, guard)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coreT, gotT) {
			t.Fatalf("WaveBuffer.PackTimed differs from PackTimedWaveforms:\n got %+v\nwant %+v", coreT, gotT)
		}
	})
}
