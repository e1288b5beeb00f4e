package stoch

import (
	"fmt"
	"math"
	"slices"
)

// This file packs waveforms for the *timed* bit-parallel simulator. Unlike
// the zero-delay PackedStimulus — whose steps are per-lane settling
// instants with no common clock — a timed simulation needs every lane on
// one shared time axis, because the spacing between input edges and gate
// delays is what creates (or suppresses) glitches. The shared axis is a
// discrete tick grid: event times are snapped to integer multiples of a
// tick, so the timed bit-parallel engine and the reference oracle run on
// exact integer arithmetic and can be compared tick for tick.

// TickEvent is one input change on the discrete tick grid.
type TickEvent struct {
	Tick  int64
	Value bool
}

// TicksIn returns the number of whole ticks that fit in the horizon — the
// last tick at which activity is simulated. The timed engine and the
// reference oracle use this cut-off, which keeps their horizon handling
// identical.
func TicksIn(horizon, tick float64) int64 {
	return int64(horizon / tick)
}

// QuantizeWaveform snaps a waveform to the tick grid: event times round to
// the nearest tick, events beyond horizonTicks are dropped, events landing
// on the same tick collapse to the last value of that tick, and events
// that do not change the running value vanish. The result is a canonical
// tick-domain stimulus — every surviving event is a real transition at a
// strictly increasing tick — consumed identically by the timed
// bit-parallel engine and the reference oracle, which is what makes the
// two comparable lane for lane. Snapping moves each event by at most half a tick (events
// closer together than a tick may merge).
func QuantizeWaveform(w *Waveform, tick float64, horizonTicks int64) []TickEvent {
	return appendQuantized(nil, w.Initial, w.Events, tick, horizonTicks)
}

// appendQuantized appends QuantizeWaveform's result for the waveform
// (initial, events) to dst, so a caller can quantize many waveforms
// through one reused buffer.
func appendQuantized(dst []TickEvent, initial bool, events []Event, tick float64, horizonTicks int64) []TickEvent {
	start := len(dst)
	for _, e := range events {
		qt := math.Round(e.Time / tick)
		// Compared as a float, so a time too large for int64 (or NaN) stops
		// here instead of converting to a negative tick.
		if !(qt <= float64(horizonTicks)) {
			break // events are time-ordered; the rest are beyond the horizon too
		}
		if n := len(dst); n > start && dst[n-1].Tick == int64(qt) {
			dst[n-1].Value = e.Value
			continue
		}
		dst = append(dst, TickEvent{Tick: int64(qt), Value: e.Value})
	}
	// Drop collapsed no-ops in place (write index never passes read index).
	val := initial
	kept := dst[:start]
	for _, te := range dst[start:] {
		if te.Value != val {
			kept = append(kept, te)
			val = te.Value
		}
	}
	return kept
}

// InputToggle is one packed input change: the named input (by index into
// TimedStimulus.Inputs) flips in the given lanes of block word Word.
// Quantization guarantees every event is a real transition, so a toggle
// mask is exact. Lane l of the stimulus lives in word l/64, bit l%64.
type InputToggle struct {
	Input int32
	Word  int32
	Lanes uint64
}

// TimedStimulus is a bit-packed Monte Carlo stimulus on a shared tick
// grid: up to MaxPackLanes independent input-vector sequences, one per bit
// lane, all expressed as toggles at integer ticks. Built by
// PackTimedWaveforms; consumed by the timed bit-parallel engine.
//
// When packed with a positive guard, the tick axis is *cluster-aligned*:
// each lane's activity clusters — maximal event runs separated by gaps no
// wider than the guard — are rigidly shifted onto shared slot positions,
// so independent lanes toggle at the same virtual ticks and the word-level
// engine evaluates all of them in one pass. The shift is exact, not an
// approximation: a gap wider than the guard (the circuit's critical-path
// settle window in ticks) means every wave has died and the circuit sits
// in its settled state, and a settled circuit's response is invariant
// under time translation — per-lane transition counts and energies are
// bit-identical to simulating the unshifted waveforms. Virtual ticks may
// therefore exceed HorizonTicks; HorizonTicks records only the admission
// cutoff applied to the original event times.
type TimedStimulus struct {
	Block
	Tick         float64         // seconds per tick
	HorizonTicks int64           // input admission cutoff, TicksIn(Horizon, Tick)
	Guard        int64           // settle window used for cluster alignment; 0 = unaligned
	Ticks        []int64         // sorted distinct (virtual) ticks with input activity
	Toggles      [][]InputToggle // parallel to Ticks
}

// Validate checks structural sanity.
func (ts *TimedStimulus) Validate() error {
	if err := ts.Block.Validate(); err != nil {
		return err
	}
	if !positiveFinite(ts.Tick) {
		return fmt.Errorf("stoch: timed stimulus tick %v must be positive and finite", ts.Tick)
	}
	if ts.HorizonTicks < 0 {
		return fmt.Errorf("stoch: negative horizon of %d ticks", ts.HorizonTicks)
	}
	if len(ts.Toggles) != len(ts.Ticks) {
		return fmt.Errorf("stoch: %d toggle groups for %d ticks", len(ts.Toggles), len(ts.Ticks))
	}
	if ts.Guard < 0 {
		return fmt.Errorf("stoch: negative guard %d", ts.Guard)
	}
	W := ts.WordWidth()
	prev := int64(-1)
	for k, tk := range ts.Ticks {
		if tk < 0 {
			return fmt.Errorf("stoch: negative tick %d at index %d", tk, k)
		}
		if tk <= prev {
			return fmt.Errorf("stoch: ticks not strictly increasing at index %d", k)
		}
		prev = tk
		for _, tg := range ts.Toggles[k] {
			if int(tg.Input) < 0 || int(tg.Input) >= len(ts.Inputs) {
				return fmt.Errorf("stoch: toggle names input %d of %d", tg.Input, len(ts.Inputs))
			}
			if int(tg.Word) < 0 || int(tg.Word) >= W {
				return fmt.Errorf("stoch: toggle of input %d names word %d of %d", tg.Input, tg.Word, W)
			}
			if tg.Lanes&^ts.WordMask(int(tg.Word)) != 0 {
				return fmt.Errorf("stoch: toggle of input %d touches inactive lanes", tg.Input)
			}
		}
	}
	return nil
}

// timedEvent is one input change of one lane during packing, keyed by a
// non-negative tick: its quantized time, or in PackWaveforms the bit
// pattern of its float64 time.
type timedEvent struct {
	tick  int64
	input int32
	lane  int32
}

// PackTimedWaveforms quantizes per-lane waveform sets onto the tick grid
// and bit-packs them: lanes[l] maps every input name to that lane's
// waveform (the shape GenerateWaveforms in package sim produces). It
// copies the waveforms into a new WaveBuffer in input order and packs
// that with WaveBuffer.PackTimed, which documents the packing.
func PackTimedWaveforms(inputs []string, lanes []map[string]*Waveform, horizon, tick float64, guard int64) (*TimedStimulus, error) {
	b, err := waveBufferOf(inputs, lanes)
	if err != nil {
		return nil, err
	}
	return b.PackTimed(inputs, horizon, tick, guard)
}

// PackTimed quantizes the buffer's lanes onto the tick grid and bit-packs
// them; inputs names the buffer's inputs in order. Each waveform is
// snapped as QuantizeWaveform snaps it — at most half a tick of skew per
// event, events beyond the horizon dropped — and the surviving
// transitions of all lanes are merged onto one shared, sorted tick axis
// as per-input toggle masks. A NaN, infinite or negative event time is an
// error, and so is a horizon of 2^63 ticks or more.
//
// guard > 0 enables cluster alignment (see TimedStimulus): per lane,
// consecutive events further apart than guard ticks start a new cluster;
// the j-th clusters of all lanes are rigidly shifted to one shared slot
// start, preserving every intra-cluster offset. Pass the consuming
// program's settle window (TimedProgram.SettleTicks) as the guard; 0
// packs the original axis unchanged.
//
// Packing runs in time linear in the number of events: every ordering is
// a stable counting or radix pass, never a comparison sort. Its working
// memory comes from a package-level pool, and the returned stimulus is
// the buffer's own: it stays valid until the buffer next packs a timed
// stimulus, so a reused buffer packs block after block without
// allocating.
func (b *WaveBuffer) PackTimed(inputs []string, horizon, tick float64, guard int64) (*TimedStimulus, error) {
	if !positiveFinite(tick) {
		return nil, fmt.Errorf("stoch: timed packing needs a positive, finite tick, got %v", tick)
	}
	if guard < 0 {
		return nil, fmt.Errorf("stoch: negative guard %d", guard)
	}
	ts := &b.timed
	if err := b.header(&ts.Block, inputs, horizon); err != nil {
		return nil, err
	}
	// Compared as a float, so a ratio too large for int64 (or +Inf) is
	// rejected instead of converting to a negative tick count.
	if !(horizon/tick < 1<<63) {
		return nil, fmt.Errorf("stoch: horizon %v spans 2^63 or more ticks of %v", horizon, tick)
	}
	ts.Tick, ts.HorizonTicks, ts.Guard = tick, TicksIn(horizon, tick), guard
	sc := packPool.Get().(*packScratch)
	defer packPool.Put(sc)

	// Quantize into one buffer, lane-major and input-major within a lane:
	// perLane[l] is lane l's stretch of it. The buffer holds every event,
	// so the stretches never move.
	lanes, n := b.lanes, b.inputs
	evs := slices.Grow(sc.evs[:0], b.start(lanes*n))
	perLane := slices.Grow(sc.perLane[:0], lanes)[:lanes]
	q := sc.q
	for l := range lanes {
		start := len(evs)
		for i := range n {
			initial, events := b.Wave(l, i)
			q = appendQuantized(q[:0], initial, events, tick, ts.HorizonTicks)
			for _, te := range q {
				evs = append(evs, timedEvent{tick: te.Tick, input: int32(i), lane: int32(l)})
			}
		}
		perLane[l] = evs[start:]
	}
	tmp := slices.Grow(sc.tmp[:0], len(evs))[:len(evs)]
	if guard > 0 {
		// Cluster alignment needs each lane in tick order; a stable pass
		// keeps same-tick events in input order.
		for _, le := range perLane {
			sc.sortByTick(le, tmp[:len(le)])
		}
		sc.alignClusters(perLane, guard)
	}
	// Order by (tick, input, lane): lanes are already ascending, a stable
	// counting pass puts them under their input, and a stable radix pass
	// on the (virtual) tick finishes the order.
	sc.byInput(tmp, evs, n)
	evs, tmp = tmp, evs
	sc.sortByTick(evs, tmp)
	sc.evs, sc.tmp, sc.perLane, sc.q = evs, tmp, perLane, q

	// One toggle per (tick, input, word) run. Counting the ticks and runs
	// first lets every tick's toggles be a sub-slice of one array.
	ticks, runs := 0, 0
	for k, e := range evs {
		switch {
		case k == 0 || e.tick != evs[k-1].tick:
			ticks++
			runs++
		case e.input != evs[k-1].input || e.lane/MaxLanes != evs[k-1].lane/MaxLanes:
			runs++
		}
	}
	ts.Ticks = slices.Grow(ts.Ticks[:0], ticks)
	ts.Toggles = slices.Grow(ts.Toggles[:0], ticks)
	toggles := slices.Grow(b.toggles[:0], runs)
	for k := 0; k < len(evs); {
		t, start := evs[k].tick, len(toggles)
		for k < len(evs) && evs[k].tick == t {
			in, word := evs[k].input, evs[k].lane/MaxLanes
			var mask uint64
			for ; k < len(evs) && evs[k].tick == t && evs[k].input == in && evs[k].lane/MaxLanes == word; k++ {
				mask |= 1 << uint(evs[k].lane%MaxLanes)
			}
			toggles = append(toggles, InputToggle{Input: in, Word: word, Lanes: mask})
		}
		ts.Ticks = append(ts.Ticks, t)
		ts.Toggles = append(ts.Toggles, toggles[start:len(toggles):len(toggles)])
	}
	b.toggles = toggles
	if ticks == 0 {
		// A quiet block packs like a fresh one: no tick arrays at all.
		ts.Ticks, ts.Toggles = nil, nil
	}
	return ts, nil
}

// sortByTick stably sorts evs by tick in place, with scratch (as long as
// evs) as the other buffer. When the ticks span no more values than there
// are events, one counting pass over the span orders them; otherwise one
// LSD radix pass per byte of the tick, skipping the bytes on which every
// tick agrees. Ticks are non-negative, so they order like their uint64
// bit patterns.
func (sc *packScratch) sortByTick(evs, scratch []timedEvent) {
	if len(evs) < 2 {
		return
	}
	lo, hi := evs[0].tick, evs[0].tick
	var diff uint64
	for _, e := range evs {
		lo, hi = min(lo, e.tick), max(hi, e.tick)
		diff |= uint64(e.tick ^ evs[0].tick)
	}
	if span := hi - lo; span < int64(len(evs)) {
		if span == 0 {
			return
		}
		pos := zeroed(sc.counts, int(span)+1)
		sc.counts = pos
		for _, e := range evs {
			pos[e.tick-lo]++
		}
		sum := 0
		for d, n := range pos {
			pos[d] = sum
			sum += n
		}
		for _, e := range evs {
			scratch[pos[e.tick-lo]] = e
			pos[e.tick-lo]++
		}
		copy(evs, scratch)
		return
	}
	src, dst := evs, scratch
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var pos [256]int
		for _, e := range src {
			pos[byte(uint64(e.tick)>>shift)]++
		}
		sum := 0
		for d, n := range pos {
			pos[d] = sum
			sum += n
		}
		for _, e := range src {
			d := byte(uint64(e.tick) >> shift)
			dst[pos[d]] = e
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &evs[0] {
		copy(evs, src)
	}
}

// byInput scatters src into dst (as long as src) grouped by input, in
// input order, keeping the order of src within each input: one stable
// counting pass.
func (sc *packScratch) byInput(dst, src []timedEvent, inputs int) {
	pos := zeroed(sc.pos, inputs+1)
	sc.pos = pos
	for _, e := range src {
		pos[e.input+1]++
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	for _, e := range src {
		dst[pos[e.input]] = e
		pos[e.input]++
	}
}

// laneCluster is one maximal activity run of a lane during alignment.
type laneCluster struct {
	start, end int // event index range [start, end) in the lane's slice
	tick       int64
	span       int64
}

// alignClusters rigidly shifts each lane's activity clusters onto shared
// slot positions (in place). Slot j spans the widest j-th cluster of any
// lane plus a guard of quiet ticks, so shifted clusters never move closer
// than the guard to each other within a lane — the condition that keeps
// the shift exactly equivalence-preserving.
func (sc *packScratch) alignClusters(perLane [][]timedEvent, guard int64) {
	clusters := sc.clusters[:0]
	bounds := slices.Grow(sc.bounds[:0], len(perLane)+1)
	maxClusters := 0
	for _, evs := range perLane {
		bounds = append(bounds, len(clusters))
		for k := 0; k < len(evs); {
			c := laneCluster{start: k, tick: evs[k].tick}
			last := evs[k].tick
			for k++; k < len(evs) && evs[k].tick-last <= guard; k++ {
				last = evs[k].tick
			}
			c.end = k
			c.span = last - c.tick
			clusters = append(clusters, c)
		}
		maxClusters = max(maxClusters, len(clusters)-bounds[len(bounds)-1])
	}
	bounds = append(bounds, len(clusters))
	sc.clusters, sc.bounds = clusters, bounds
	slotStart := int64(0)
	for j := 0; j < maxClusters; j++ {
		width := int64(0)
		for l := range perLane {
			if lc := clusters[bounds[l]:bounds[l+1]]; j < len(lc) && lc[j].span > width {
				width = lc[j].span
			}
		}
		for l, evs := range perLane {
			lc := clusters[bounds[l]:bounds[l+1]]
			if j >= len(lc) {
				continue
			}
			c := lc[j]
			shift := slotStart - c.tick
			for k := c.start; k < c.end; k++ {
				evs[k].tick += shift
			}
		}
		slotStart += width + guard + 1
	}
}
