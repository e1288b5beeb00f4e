package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/stoch"
)

// This file is the timed bit-parallel engine: unit- and Elmore-delay
// glitch-power simulation of 64 packed Monte Carlo lanes per machine
// word. It reuses the word-op lowering of compile.go but organizes the
// program per gate instead of as one levelized stream, because under real
// delays a gate's inputs are the *net* values — which lag the driving
// gates' computed outputs by their delays — not the combinational values:
//
//   - Every net keeps a persistent value register; every gate additionally
//     keeps a persistent "last computed output" register and persistent
//     internal-node state registers (charge retention).
//   - Gate delays are quantized to integer ticks (exact in UnitDelay mode,
//     where the auto tick is the unit delay itself; within half a tick in
//     ElmoreDelay mode — see Params.Tick for the documented bound), and
//     scheduled output updates live in a word-level timing wheel: a ring
//     of at least maxDelay+1 slots (rounded up to a power of two, so a
//     tick's slot is a mask), each holding (gate, lane-mask) entries, plus
//     a min-heap of active ticks so empty grid ranges are skipped.
//   - Per tick the engine runs one instant-atomic delta cycle: input
//     toggles apply first, then the affected cone is swept once in
//     topological order — re-evaluating a gate's word ops where any
//     fan-in lane changed (metering internal flips by popcount and
//     scheduling an update delayTicks ahead in the lanes whose computed
//     output changed or differs from the net), and firing pending
//     updates by sampling the gate's current computed output, so pulses
//     that collapsed before their update fires are filtered per lane.
//     Every per-instant effect flows forward in topological order, so
//     the settled result of an instant is independent of arrival order.
//     Input events beyond the horizon are dropped at quantization; the
//     gate updates admitted stimulus triggered drain to completion, which
//     keeps results invariant under the packer's cluster shifts.
//
// The timed lane-equivalence property test holds this engine to
// internal/gen's naive oracle lane for lane on every embedded benchmark,
// in both delay modes, at the same tick resolution.

// fireEntry schedules an output update: gate g samples and applies its
// computed output in the given lanes of block word `word` when the slot's
// tick arrives. One entry per (gate, word) keeps the wheel allocation-free
// at every block width.
type fireEntry struct {
	gate  int32
	word  int32
	lanes uint64
}

// fireSlot is one ring position of the timing wheel.
type fireSlot struct {
	tick    int64 // tick the entries belong to; -1 when empty
	entries []fireEntry
}

// timedGate is the static per-gate record of a TimedProgram.
type timedGate struct {
	yReg     int32 // combinational output, rewritten by the gate's ops
	prevY    int32 // persistent last-computed output
	out      int32 // persistent net value of the gate's output
	outMeter int32 // meter index of the output net
	intStart int32 // [intStart,intEnd) index internal meters in meters
	intEnd   int32
	delay    int64   // output delay in ticks, ≥ 1
	readers  []int32 // gate indices reading the output net
}

// TimedProgram is a circuit compiled for the timed bit-parallel engine.
// It is immutable after CompileTimed and safe for concurrent Run calls
// (run state is pooled per program).
//
// A program may also hold a best/worst pair: two orderings of one netlist
// whose gates share every net and every quantized delay, so every net's
// waveform is the same in both and one timing wheel serves them. Per gate
// it meters best's internal nodes, then worst's, then the shared output,
// and each ordering has its own energy table over those meters.
type TimedProgram struct {
	lowering
	tick    float64 // seconds per tick
	opStart []int32 // per gate: ops[opStart[g]:opStart[g+1]]

	inReaders [][]int32 // gate indices reading each primary input

	tg          []timedGate
	maxDelay    int64
	settleTicks int64 // critical path in ticks: the settle window after an input edge

	// energy holds one table per ordering compiled in (one, or a
	// best/worst pair), indexed by meter: the energy one transition of
	// the meter's node dissipates per lane in that ordering, 0 for the
	// other ordering's internal nodes.
	energy [][]float64

	scratch sync.Pool // *timedScratch
}

// Tick returns the resolved tick duration in seconds. Stimulus packed for
// this program must use the same tick.
func (tp *TimedProgram) Tick() float64 { return tp.tick }

// MaxDelayTicks returns the largest quantized gate delay — the timing
// wheel's span.
func (tp *TimedProgram) MaxDelayTicks() int64 { return tp.maxDelay }

// SettleTicks returns the critical path in ticks: every wave launched by
// an input edge dies within this many ticks, so two stimulus instants
// further apart than this window cannot interact. It is the guard
// PackTimedWaveforms needs for exact cluster alignment.
func (tp *TimedProgram) SettleTicks() int64 { return tp.settleTicks }

// PackTimed packs per-lane waveform sets for this program: quantized at
// the program's tick and cluster-aligned with its settle window, so the
// packed lanes share instants and the word-level engine evaluates all of
// them per pass.
func (tp *TimedProgram) PackTimed(laneWaves []map[string]*stoch.Waveform, horizon float64) (*stoch.TimedStimulus, error) {
	return stoch.PackTimedWaveforms(tp.inputs, laneWaves, horizon, tp.tick, tp.settleTicks)
}

// CompileTimed lowers the circuit into a timed bit-parallel program. prm
// must describe a unit- or Elmore-delay setup; the tick grid resolves per
// Params.Tick (0 = auto) exactly as TickPlan resolves it, so the engine
// and the reference oracle share one time base.
func CompileTimed(c *circuit.Circuit, prm Params) (*TimedProgram, error) {
	tc, err := planTimed(c, prm)
	if err != nil {
		return nil, err
	}
	tick, err := resolveTick(prm, tc.delays)
	if err != nil {
		return nil, err
	}
	return compileTimed(tick, prm.Cap, tc, nil)
}

// timedCircuit is a circuit ready for a timed compile: validated, in
// topological order, with its fanout and every gate's delay in seconds.
type timedCircuit struct {
	c      *circuit.Circuit
	order  []*circuit.Instance
	fanout map[string]int
	delays []float64 // parallel to order
}

// planTimed validates prm and c for a timed compile and computes c's gate
// delays.
func planTimed(c *circuit.Circuit, prm Params) (*timedCircuit, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if prm.Mode == ZeroDelay {
		return nil, fmt.Errorf("sim: CompileTimed needs a timed delay mode; use Compile for zero delay")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	tc := &timedCircuit{c: c, order: order, fanout: c.Fanout()}
	if tc.delays, err = gateDelaySeconds(order, tc.fanout, prm); err != nil {
		return nil, err
	}
	return tc, nil
}

// sameDelays reports whether two orderings of one netlist quantize every
// gate's delay to the same ticks: the condition under which every net has
// the same waveform in both, so one program can run the pair.
func sameDelays(a, b *timedCircuit, tick float64) bool {
	if len(a.delays) != len(b.delays) {
		return false
	}
	for gi, d := range a.delays {
		if quantizeDelay(d, tick) != quantizeDelay(b.delays[gi], tick) {
			return false
		}
	}
	return true
}

// compileTimed lowers best on the given tick grid. With a worst circuit
// it lowers the pair into one program: worst must be another ordering of
// best's netlist (the same inputs and gates; only the configurations
// differ), and the caller has checked that every gate's quantized delay
// is the same in both (sameDelays), so best's delays time both. Each
// gate then runs the template of its best/worst configuration pair
// (pairTemplateOf), and the program gets two energy tables. Without
// worst, the program and its meter order are the single circuit's.
func compileTimed(tick float64, cp core.Params, best, worst *timedCircuit) (*TimedProgram, error) {
	orderings := 1
	if worst != nil {
		if !slices.Equal(worst.c.Inputs, best.c.Inputs) || len(worst.order) != len(best.order) {
			return nil, fmt.Errorf("sim: best and worst circuits have different inputs or gates")
		}
		orderings = 2
	}
	tp := &TimedProgram{tick: tick, energy: make([][]float64, orderings)}
	netReg := tp.start(best.c.Inputs, best.order)
	for o := range tp.energy {
		tp.energy[o] = make([]float64, len(tp.meters)) // inputs dissipate nothing
	}

	// readers maps every net to the list of gates re-evaluated when its
	// value changes; arrive holds its latest arrival in ticks after an
	// input edge.
	tp.inReaders = make([][]int32, len(tp.inputs))
	tp.tg = make([]timedGate, len(tp.gates))
	readers := make(map[string]*[]int32, len(tp.inputs)+len(tp.gates))
	for i, in := range tp.inputs {
		readers[in] = &tp.inReaders[i]
	}
	arrive := make(map[string]int64, len(tp.inputs)+len(tp.gates))
	for gi, g := range tp.gates {
		tg := &tp.tg[gi]
		tg.delay = quantizeDelay(best.delays[gi], tick)
		cfg := g.Cell
		if worst != nil {
			w := worst.order[gi]
			if w.Name != g.Name || w.Out != g.Out || !slices.Equal(w.Pins, g.Pins) {
				return nil, fmt.Errorf("sim: instance %s: best and worst circuits differ in gate %s", g.Name, w.Name)
			}
			cfg = w.Cell
		}
		tp.opStart = append(tp.opStart, int32(len(tp.ops)))
		t, m, err := tp.lowerGate(g, cfg, netReg)
		if err != nil {
			return nil, err
		}
		tp.maxDelay = max(tp.maxDelay, tg.delay)

		// A gate reading a net on several pins appears once in its
		// reader list: dirty marking is an idempotent OR, so duplicates
		// would only cost redundant bitmap stores in the hot fire path.
		// They land consecutively, so checking the tail is enough.
		var worstArrival int64
		for _, pin := range g.Pins {
			if rs := readers[pin]; len(*rs) == 0 || (*rs)[len(*rs)-1] != int32(gi) {
				*rs = append(*rs, int32(gi))
			}
			worstArrival = max(worstArrival, arrive[pin])
		}
		// The settle window is the critical path in ticks: every wave an
		// input edge launches dies within it, the guard cluster-aligned
		// packing relies on.
		arrive[g.Out] = worstArrival + tg.delay
		tp.settleTicks = max(tp.settleTicks, worstArrival+tg.delay)

		tg.intStart = int32(len(tp.meters))
		tp.internalMeters(gi, t, &m, cp)
		tg.intEnd = int32(len(tp.meters))

		// Output: the combinational value y = H_y, a persistent copy of
		// the last computed y, and the persistent net value the fan-out
		// actually reads (it lags y by the gate delay).
		tg.yReg = m.reg(t.out)
		tg.prevY = tp.alloc()
		tg.out = tp.alloc()
		netReg[g.Out] = tg.out
		readers[g.Out] = &tg.readers
		tg.outMeter = int32(len(tp.meters))
		tp.meters = append(tp.meters, meterPoint{
			valueReg: tg.prevY, stateReg: tg.out, kind: meterOutput, gate: int32(gi), net: g.Out,
			energy: outputEnergy(cp, t.outDeg[0], best.fanout[g.Out]),
		})

		// Each ordering's table: its own internal nodes, then the output
		// at its own output degree.
		for o := range tp.energy {
			for k, nd := range t.internal {
				e := tp.meters[tg.intStart+int32(k)].energy
				if nd.owner >= 0 && int(nd.owner) != o {
					e = 0
				}
				tp.energy[o] = append(tp.energy[o], e)
			}
			tp.energy[o] = append(tp.energy[o], outputEnergy(cp, t.outDeg[o], best.fanout[g.Out]))
		}
	}
	tp.opStart = append(tp.opStart, int32(len(tp.ops)))
	return tp, nil
}

// timedScratch is the pooled mutable state of one timed run, sized for
// one register-block width (words).
type timedScratch struct {
	words    int
	regs     []uint64 // plane-major: word w of register r is [w·numRegs + r]
	dirty    []uint64 // [gate·W + w]: lanes whose fan-in changed this instant
	fire     []uint64 // [gate·W + w]: lanes with a pending update this instant
	counts   []int64  // per meter
	wheel    []fireSlot
	tickHeap []int64
	marked   []uint64 // bitmap over gate indices marked this instant
	agenda   []uint64 // summary bitmap: bit j set ⇔ marked[j] non-zero
	steps    int      // instants processed
}

func newTimedScratch(tp *TimedProgram, words int) *timedScratch {
	markedWords := (len(tp.tg) + 63) / 64
	sc := &timedScratch{
		words:  words,
		regs:   make([]uint64, tp.numRegs*words),
		dirty:  make([]uint64, len(tp.tg)*words),
		fire:   make([]uint64, len(tp.tg)*words),
		counts: make([]int64, len(tp.meters)),
		// A power-of-two ring spanning every pending delay: exec indexes
		// it with a mask instead of a 64-bit division.
		wheel:  make([]fireSlot, 1<<bits.Len64(uint64(tp.maxDelay))),
		marked: make([]uint64, markedWords),
		agenda: make([]uint64, (markedWords+63)/64),
	}
	for i := range sc.wheel {
		sc.wheel[i].tick = -1
	}
	return sc
}

// getScratch returns a reset scratch sized for the requested block width.
// A pooled scratch from a run of a different lane width is discarded
// rather than resized piecemeal — its register, dirty and fire strides
// would all be wrong — so interleaved 64/256/512-lane runs on one program
// never share buffers.
func (tp *TimedProgram) getScratch(words int) *timedScratch {
	if sc, ok := tp.scratch.Get().(*timedScratch); ok && sc.words == words {
		sc.reset()
		return sc
	}
	return newTimedScratch(tp, words)
}

// reset clears the scratch for a fresh run. Dirty/fire words and the wheel
// finish every run empty, but a reset keeps pooled state safe even after
// an error exit.
func (sc *timedScratch) reset() {
	clear(sc.regs)
	clear(sc.dirty)
	clear(sc.fire)
	clear(sc.counts)
	for i := range sc.wheel {
		sc.wheel[i].tick = -1
		sc.wheel[i].entries = sc.wheel[i].entries[:0]
	}
	sc.tickHeap = sc.tickHeap[:0]
	clear(sc.marked)
	clear(sc.agenda)
	sc.steps = 0
}

// Run evaluates the packed timed stimulus: per active tick, apply input
// toggles and scheduled output updates, sweep the affected cone once in
// topological order, meter transitions by popcount. The TimedProgram is
// read-only; concurrent Runs are safe.
func (tp *TimedProgram) Run(stim *stoch.TimedStimulus) (*BitResult, error) {
	return tp.runMetered(stim, nil)
}

// RunLanes is Run with per-lane metering, the form the lane-equivalence
// property tests compare against independent oracle runs.
func (tp *TimedProgram) RunLanes(stim *stoch.TimedStimulus) (*BitResult, error) {
	return tp.runMetered(stim, &laneMeter{})
}

// RunEnergy is the lean measurement path: total metered energy in joules
// across all lanes, with no per-net result assembly — the sweep engine's
// S column only needs this number. Steady-state calls do not allocate.
func (tp *TimedProgram) RunEnergy(stim *stoch.TimedStimulus) (float64, error) {
	var e [2]float64
	err := tp.runEnergies(stim, &e)
	return e[0], err
}

// runEnergies runs stim once and stores each compiled ordering's energy
// in e: Σ table[mi]·counts[mi] over its energy table, in meter order. A
// pair's table adds exactly the terms the ordering's own program adds, in
// the same order, plus +0 terms, so both energies equal separate RunEnergy
// calls bit for bit.
func (tp *TimedProgram) runEnergies(stim *stoch.TimedStimulus, e *[2]float64) error {
	sc, err := tp.exec(stim, nil)
	if err != nil {
		return err
	}
	for o, table := range tp.energy {
		var sum float64
		for mi, en := range table {
			sum += en * float64(sc.counts[mi])
		}
		e[o] = sum
	}
	tp.scratch.Put(sc)
	return nil
}

// runMetered is the timed counterpart of Program.runMetered.
func (tp *TimedProgram) runMetered(stim *stoch.TimedStimulus, lm *laneMeter) (*BitResult, error) {
	lm.begin(tp.meters, stim.Lanes, tp.tick)
	sc, err := tp.exec(stim, lm)
	if err != nil {
		return nil, err
	}
	br := assembleResult(tp.gates, tp.meters, stim.Lanes, sc.steps, stim.Horizon, sc.counts, lm)
	lm.snapshot(sc.regs[:tp.numRegs])
	tp.scratch.Put(sc)
	return br, nil
}

// exec runs the timed simulation and returns the scratch holding raw
// meter counts; the caller must Put it back into the pool.
func (tp *TimedProgram) exec(stim *stoch.TimedStimulus, lm *laneMeter) (*timedScratch, error) {
	if err := stim.Validate(); err != nil {
		return nil, err
	}
	if stim.Tick != tp.tick {
		return nil, fmt.Errorf("sim: stimulus tick %v does not match program tick %v", stim.Tick, tp.tick)
	}
	if stim.Guard != 0 && stim.Guard < tp.settleTicks {
		return nil, fmt.Errorf("sim: stimulus aligned with guard %d, but the program needs %d ticks to settle", stim.Guard, tp.settleTicks)
	}
	inRow, maskArr, err := tp.bind(&stim.Block)
	if err != nil {
		return nil, err
	}
	// rowToProg maps stimulus rows back to program inputs for the toggle
	// loop; nil means identity (the common case, no allocation).
	var rowToProg []int32
	if inRow != nil {
		rowToProg = make([]int32, len(stim.Inputs))
		for i := range rowToProg {
			rowToProg[i] = -1
		}
		for pi, row := range inRow {
			rowToProg[row] = int32(pi)
		}
	}
	W := stim.WordWidth()
	masks := maskArr[:W]
	sc := tp.getScratch(W)
	regs, dirty, fire, counts := sc.regs, sc.dirty, sc.fire, sc.counts
	// The register file is plane-major, as in the zero-delay engine: word
	// w of every register lives in the contiguous plane regs[w·R:(w+1)·R].
	// Lanes toggle at independent instants, so most of a timed run
	// evaluates single words of a wide block — a plane keeps that
	// single-word work inside one L1-resident window with unit-stride
	// addressing.
	R := tp.numRegs
	wheelMask := int64(len(sc.wheel) - 1)

	// t=0 settle: load initial inputs and evaluate every gate once in
	// topological order, committing nets, computed outputs and internal
	// states without metering — the zero-delay settle every timed run
	// starts from. Gate evaluation and net commit interleave because
	// each gate's ops read the committed `out` registers of its fan-in.
	for w := 0; w < W; w++ {
		plane := regs[w*R : w*R+R]
		tp.loadInitial(plane, stim.Initial, inRow, W, w, masks[w])
		for g := range tp.tg {
			gt := &tp.tg[g]
			execOps(tp.ops[tp.opStart[g]:tp.opStart[g+1]], plane)
			for mi := gt.intStart; mi < gt.intEnd; mi++ {
				mp := &tp.meters[mi]
				plane[mp.stateReg] = plane[mp.valueReg]
			}
			y := plane[gt.yReg]
			plane[gt.prevY] = y
			plane[gt.out] = y
		}
	}

	perLane := lm != nil

	ops, opStart, meters := tp.ops, tp.opStart, tp.meters
	marked, agenda := sc.marked, sc.agenda
	inputPtr := 0
	for {
		// Next active tick: the earlier of the next input instant and the
		// earliest scheduled fire. The tick min-heap is the skip-ahead —
		// quiet tick ranges between active instants are never visited.
		t := int64(-1)
		if inputPtr < len(stim.Ticks) {
			t = stim.Ticks[inputPtr]
		}
		if len(sc.tickHeap) > 0 && (t < 0 || sc.tickHeap[0] < t) {
			t = sc.tickHeap[0]
		}
		if t < 0 {
			break // no stimulus left and every wave has drained
		}
		sc.steps++
		// Phase 1a: move this tick's wheel entries into per-gate fire
		// words.
		for len(sc.tickHeap) > 0 && sc.tickHeap[0] == t {
			_, sc.tickHeap = heapPop(sc.tickHeap)
			slot := &sc.wheel[t&wheelMask]
			if slot.tick != t {
				continue
			}
			for _, fe := range slot.entries {
				g := fe.gate
				marked[g>>6] |= 1 << (uint(g) & 63)
				agenda[g>>12] |= 1 << (uint(g>>6) & 63)
				fire[int(g)*W+int(fe.word)] |= fe.lanes
			}
			slot.entries = slot.entries[:0]
			slot.tick = -1
		}
		// Phase 1b: apply this tick's input toggles.
		if inputPtr < len(stim.Ticks) && stim.Ticks[inputPtr] == t {
			for _, tog := range stim.Toggles[inputPtr] {
				m := tog.Lanes & masks[tog.Word]
				if m == 0 {
					continue
				}
				i := tog.Input // stimulus-row index
				if rowToProg != nil {
					if i = rowToProg[tog.Input]; i < 0 {
						continue // stimulus drives an input the program lacks
					}
				}
				regs[int(tog.Word)*R+int(tp.inReg[i])] ^= m
				// Input i's meter is meter i (lowering.begin).
				counts[i] += int64(bits.OnesCount64(m))
				if perLane {
					lm.add(int32(i), int(tog.Word), m, t)
				}
				for _, r := range tp.inReaders[i] {
					marked[r>>6] |= 1 << (uint(r) & 63)
					agenda[r>>12] |= 1 << (uint(r>>6) & 63)
					dirty[int(r)*W+int(tog.Word)] |= m
				}
			}
			inputPtr++
		}
		// Phase 2: sweep the marked cone in topological order. The agenda
		// is a two-level bitmap over gate indices: the summary word points
		// at occupied marked words, so a sweep touching a handful of gates
		// in a large circuit visits only their words instead of scanning
		// the whole bitmap. Both levels drain lowest bit first; marks only
		// ever target later gates (readers are topologically later), so
		// bits appearing during the sweep — above the bit just cleared, or
		// in later words — are picked up by the same pass, and a drained
		// word is never re-marked.
		for sw := 0; sw < len(agenda); sw++ {
			for agenda[sw] != 0 {
				wb := bits.TrailingZeros64(agenda[sw])
				w := sw<<6 + wb
				for marked[w] != 0 {
					b := bits.TrailingZeros64(marked[w])
					marked[w] &^= 1 << uint(b)
					g := int32(w<<6 + b)
					gt := &tp.tg[g]
					// One visit per word of the block. Lanes toggle at
					// independent instants, so a firing tick usually dirties
					// one word of a wide block: idle words are skipped, and
					// the work stays in the visited word's register plane.
					for x, gx := 0, int(g)*W; x < W; x, gx = x+1, gx+1 {
						d, f := dirty[gx], fire[gx]
						plane := regs[x*R : x*R+R]
						if d != 0 {
							dirty[gx] = 0
							execOps(ops[opStart[g]:opStart[g+1]], plane)
							mask := masks[x]
							for mi := gt.intStart; mi < gt.intEnd; mi++ {
								mp := &meters[mi]
								if diff := (plane[mp.valueReg] ^ plane[mp.stateReg]) & mask; diff != 0 {
									counts[mi] += int64(bits.OnesCount64(diff))
									if perLane {
										lm.add(mi, x, diff, t)
									}
									plane[mp.stateReg] = plane[mp.valueReg]
								}
							}
							// Schedule an update in the lanes re-evaluated this
							// instant whose computed output changed or differs
							// from the net.
							y := plane[gt.yReg]
							sched := ((y ^ plane[gt.prevY]) | (y ^ plane[gt.out])) & d
							plane[gt.prevY] = y
							if sched != 0 {
								T := t + gt.delay
								slot := &sc.wheel[T&wheelMask]
								if slot.tick != T {
									slot.tick = T
									slot.entries = slot.entries[:0]
									sc.tickHeap = heapPush(sc.tickHeap, T)
								}
								slot.entries = append(slot.entries, fireEntry{gate: g, word: int32(x), lanes: sched})
							}
						}
						if f != 0 {
							// Sample the current computed output: lanes whose
							// pulse already collapsed see no difference and are
							// filtered.
							fire[gx] = 0
							if diff := (plane[gt.prevY] ^ plane[gt.out]) & f; diff != 0 {
								plane[gt.out] ^= diff
								counts[gt.outMeter] += int64(bits.OnesCount64(diff))
								if perLane {
									lm.add(gt.outMeter, x, diff, t)
								}
								for _, r := range gt.readers {
									marked[r>>6] |= 1 << (uint(r) & 63)
									agenda[r>>12] |= 1 << (uint(r>>6) & 63)
									dirty[int(r)*W+x] |= diff
								}
							}
						}
					}
				}
				agenda[sw] &^= 1 << uint(wb)
			}
		}
	}
	return sc, nil
}

// heapPush inserts v into the slice-backed binary min-heap h and returns
// the grown heap — the timed engine's active-tick heap.
func heapPush(h []int64, v int64) []int64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// heapPop removes the minimum element of h, returning it and the shrunk
// heap.
func heapPop(h []int64) (int64, []int64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l] < h[least] {
			least = l
		}
		if r < n && h[r] < h[least] {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top, h
}
