package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gate"
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
//     of maxDelay+1 slots, each holding (gate, lane-mask) entries, plus a
//     min-heap of active ticks so empty grid ranges are skipped.
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
type TimedProgram struct {
	circ    *circuit.Circuit
	inputs  []string
	gates   []*circuit.Instance
	tick    float64 // seconds per tick
	numRegs int
	ops     []bitOp
	opStart []int32 // per gate: ops[opStart[g]:opStart[g+1]]

	inReg     []int32   // persistent value register per primary input
	inMeter   []int32   // meter index per primary input
	inReaders [][]int32 // gate indices reading each primary input

	tg          []timedGate
	meters      []meterPoint // metadata for assemble; internal meters carry regs
	maxDelay    int64
	settleTicks int64 // critical path in ticks: the settle window after an input edge

	scratch sync.Pool // *timedScratch
}

// Tick returns the resolved tick duration in seconds. Stimulus packed for
// this program must use the same tick.
func (tp *TimedProgram) Tick() float64 { return tp.tick }

// NumOps returns the length of the compiled instruction stream.
func (tp *TimedProgram) NumOps() int { return len(tp.ops) }

// NumRegs returns the register-file size one evaluation uses.
func (tp *TimedProgram) NumRegs() int { return tp.numRegs }

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

// emit implements wordEmitter.
func (tp *TimedProgram) emit(code opCode, a, b int32) int32 {
	dst := int32(tp.numRegs)
	tp.numRegs++
	tp.ops = append(tp.ops, bitOp{code: code, dst: dst, a: a, b: b})
	return dst
}

// CompileTimed lowers the circuit into a timed bit-parallel program. prm
// must describe a unit- or Elmore-delay setup; the tick grid resolves per
// Params.Tick (0 = auto) exactly as TickPlan resolves it, so the engine
// and the reference oracle share one time base.
func CompileTimed(c *circuit.Circuit, prm Params) (*TimedProgram, error) {
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
	fanout := c.Fanout()
	delays, err := gateDelaySeconds(order, fanout, prm)
	if err != nil {
		return nil, err
	}
	tick, err := resolveTick(prm, delays)
	if err != nil {
		return nil, err
	}
	halfCV2 := 0.5 * prm.Cap.Vdd * prm.Cap.Vdd

	tp := &TimedProgram{
		circ:   c,
		inputs: append([]string(nil), c.Inputs...),
		gates:  order,
		tick:   tick,
	}
	// Registers 0 and 1 hold the constants all-zeros and all-ones.
	tp.numRegs = 2
	alloc := func() int32 {
		r := int32(tp.numRegs)
		tp.numRegs++
		return r
	}

	netReg := make(map[string]int32, len(c.Inputs)+len(order))
	gateIdx := make(map[string]int32, len(order)) // output net → gate index
	for _, in := range tp.inputs {
		r := alloc()
		tp.inReg = append(tp.inReg, r)
		netReg[in] = r
		tp.inMeter = append(tp.inMeter, int32(len(tp.meters)))
		tp.meters = append(tp.meters, meterPoint{
			valueReg: r, stateReg: r, kind: meterInput, gate: -1, net: in,
		})
	}
	tp.inReaders = make([][]int32, len(tp.inputs))

	for gi, g := range order {
		if len(g.Pins) > maxCompiledInputs {
			return nil, fmt.Errorf("sim: instance %s: cell %s has %d inputs; the bit-parallel compiler supports at most %d",
				g.Name, g.Cell.Name, len(g.Pins), maxCompiledInputs)
		}
		gr, err := g.Cell.Graph()
		if err != nil {
			return nil, fmt.Errorf("sim: instance %s: %w", g.Name, err)
		}
		gc := &gateCompiler{
			p:    tp,
			n:    len(g.Pins),
			vars: make([]int32, len(g.Pins)),
			memo: map[uint64]int32{},
		}
		for i, pin := range g.Pins {
			r, ok := netReg[pin]
			if !ok {
				return nil, fmt.Errorf("sim: instance %s reads unknown net %q", g.Name, pin)
			}
			gc.vars[i] = r
		}

		tg := timedGate{
			delay:    quantizeDelay(delays[gi], tick),
			intStart: int32(len(tp.meters)),
		}
		if tg.delay > tp.maxDelay {
			tp.maxDelay = tg.delay
		}

		tp.opStart = append(tp.opStart, int32(len(tp.ops)))
		// Internal nodes: driven to the rail a conducting path reaches,
		// retaining charge otherwise (state register is persistent).
		for _, nk := range gr.InternalNodes() {
			ttH := truthTable(gr.H(nk))
			ttG := truthTable(gr.G(nk))
			ttDriven := ttH | ttG
			stateReg := alloc()
			rNew := gc.compile(ttH)
			if ttDriven != gc.mask() {
				rDriven := gc.compile(ttDriven)
				rKeep := tp.emit(opAndNot, stateReg, rDriven)
				rNew = tp.emit(opOr, rNew, rKeep)
			}
			tp.meters = append(tp.meters, meterPoint{
				valueReg: rNew, stateReg: stateReg, kind: meterInternal, gate: int32(gi),
				energy: halfCV2 * prm.Cap.Cj * float64(gr.Degree(nk)),
			})
		}
		tg.intEnd = int32(len(tp.meters))

		// Output: the combinational value y = H_y, a persistent copy of
		// the last computed y, and the persistent net value the fan-out
		// actually reads (it lags y by the gate delay).
		tg.yReg = gc.compile(truthTable(gr.OutputFunc()))
		tg.prevY = alloc()
		tg.out = alloc()
		netReg[g.Out] = tg.out
		gateIdx[g.Out] = int32(gi)
		tg.outMeter = int32(len(tp.meters))
		tp.meters = append(tp.meters, meterPoint{
			valueReg: tg.prevY, stateReg: tg.out, kind: meterOutput, gate: int32(gi), net: g.Out,
			energy: halfCV2 * (prm.Cap.Cj*float64(gr.Degree(gate.Y)) + prm.Cap.OutputLoad(fanout[g.Out])),
		})
		tp.tg = append(tp.tg, tg)
	}
	tp.opStart = append(tp.opStart, int32(len(tp.ops)))

	// Reader lists: which gates re-evaluate when a net's value changes.
	inputIdx := make(map[string]int, len(tp.inputs))
	for i, in := range tp.inputs {
		inputIdx[in] = i
	}
	for gi, g := range order {
		for _, pin := range g.Pins {
			// A gate reading a net on several pins appears once: dirty
			// marking is an idempotent OR, so duplicate entries would only
			// cost redundant bitmap stores in the hot fire path.
			// Duplicates from one gate's pin loop land consecutively, so
			// checking the tail is enough.
			if di, ok := gateIdx[pin]; ok {
				rs := tp.tg[di].readers
				if n := len(rs); n == 0 || rs[n-1] != int32(gi) {
					tp.tg[di].readers = append(rs, int32(gi))
				}
			} else if ii, ok := inputIdx[pin]; ok {
				rs := tp.inReaders[ii]
				if n := len(rs); n == 0 || rs[n-1] != int32(gi) {
					tp.inReaders[ii] = append(rs, int32(gi))
				}
			}
		}
	}
	// Critical path in ticks: longest-path DP over the quantized delays.
	// Every wave an input edge launches dies within this window, which is
	// the guard cluster-aligned packing relies on.
	arr := make(map[string]int64, len(c.Inputs)+len(order))
	for gi, g := range order {
		var worst int64
		for _, pin := range g.Pins {
			if a := arr[pin]; a > worst {
				worst = a
			}
		}
		a := worst + tp.tg[gi].delay
		arr[g.Out] = a
		if a > tp.settleTicks {
			tp.settleTicks = a
		}
	}

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
		wheel:  make([]fireSlot, tp.maxDelay+1),
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
	for i := range sc.regs {
		sc.regs[i] = 0
	}
	for i := range sc.dirty {
		sc.dirty[i] = 0
		sc.fire[i] = 0
	}
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	for i := range sc.wheel {
		sc.wheel[i].tick = -1
		sc.wheel[i].entries = sc.wheel[i].entries[:0]
	}
	sc.tickHeap = sc.tickHeap[:0]
	for i := range sc.marked {
		sc.marked[i] = 0
	}
	for i := range sc.agenda {
		sc.agenda[i] = 0
	}
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
	sc, err := tp.exec(stim, nil)
	if err != nil {
		return 0, err
	}
	var energy float64
	for mi := range tp.meters {
		energy += tp.meters[mi].energy * float64(sc.counts[mi])
	}
	tp.scratch.Put(sc)
	return energy, nil
}

// runMetered is the timed counterpart of Program.runMetered.
func (tp *TimedProgram) runMetered(stim *stoch.TimedStimulus, lm *laneMeter) (*BitResult, error) {
	lm.begin(tp.meters, stim.Lanes, tp.tick)
	sc, err := tp.exec(stim, lm)
	if err != nil {
		return nil, err
	}
	br := assembleResult(tp.gates, tp.meters, stim.Lanes, sc.steps, stim.Horizon, sc.counts, lm)
	lm.snapshot(func(reg int32) uint64 { return sc.regs[reg] }) // plane 0 holds word 0
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
	inRow, err := matchInputs(tp.inputs, stim.Inputs)
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
	var maskArr [stoch.MaxWords]uint64
	for w := 0; w < W; w++ {
		maskArr[w] = stim.WordMask(w)
	}
	masks := maskArr[:W]
	sc := tp.getScratch(W)
	regs, dirty, fire, counts := sc.regs, sc.dirty, sc.fire, sc.counts
	// The timed register file is plane-major: word w of every register
	// lives in the contiguous plane regs[w·R:(w+1)·R]. Lanes toggle at
	// independent instants, so most of a timed run evaluates single words
	// of a wide block — a plane keeps that single-word work inside one
	// L1-resident window with unit-stride addressing, where the zero-delay
	// engine's block-interleaved layout would spread it across the whole
	// wide register file.
	R := tp.numRegs
	wheelLen := int64(len(sc.wheel))

	// t=0 settle: load initial inputs and evaluate every gate once in
	// topological order, committing nets, computed outputs and internal
	// states without metering — the zero-delay settle every timed run
	// starts from. Gate evaluation and net commit interleave because
	// each gate's ops read the committed `out` registers of its fan-in.
	for w := 0; w < W; w++ {
		plane := regs[w*R : w*R+R]
		plane[1] = ^uint64(0) // register 1: the all-ones constant
		for i, r := range tp.inReg {
			row := i
			if inRow != nil {
				row = inRow[i]
			}
			plane[r] = stim.Initial[row*W+w] & masks[w]
		}
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
	fullW := uint32(1)<<uint(W) - 1
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
			slot := &sc.wheel[t%wheelLen]
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
				counts[tp.inMeter[i]] += int64(bits.OnesCount64(m))
				if perLane {
					lm.add(tp.inMeter[i], int(tog.Word), m, t)
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
					if W == 1 {
						// Single-word fast path: the 64-lane register file
						// is one plane and the block masks collapse to the
						// bitmap words themselves — none of the wide path's
						// per-block occupancy bookkeeping is needed.
						d, f := dirty[g], fire[g]
						if d != 0 {
							dirty[g] = 0
							execOps(ops[opStart[g]:opStart[g+1]], regs)
							for mi := gt.intStart; mi < gt.intEnd; mi++ {
								mp := &meters[mi]
								if diff := (regs[mp.valueReg] ^ regs[mp.stateReg]) & masks[0]; diff != 0 {
									counts[mi] += int64(bits.OnesCount64(diff))
									if perLane {
										lm.add(mi, 0, diff, t)
									}
									regs[mp.stateReg] = regs[mp.valueReg]
								}
							}
							y := regs[gt.yReg]
							sched := ((y ^ regs[gt.prevY]) | (y ^ regs[gt.out])) & d
							regs[gt.prevY] = y
							if sched != 0 {
								T := t + gt.delay
								slot := &sc.wheel[T%wheelLen]
								if slot.tick != T {
									slot.tick = T
									slot.entries = slot.entries[:0]
									sc.tickHeap = heapPush(sc.tickHeap, T)
								}
								slot.entries = append(slot.entries, fireEntry{gate: g, lanes: sched})
							}
						}
						if f != 0 {
							fire[g] = 0
							if diff := (regs[gt.prevY] ^ regs[gt.out]) & f; diff != 0 {
								regs[gt.out] ^= diff
								counts[gt.outMeter] += int64(bits.OnesCount64(diff))
								if perLane {
									lm.add(gt.outMeter, 0, diff, t)
								}
								for _, r := range gt.readers {
									marked[r>>6] |= 1 << (uint(r) & 63)
									agenda[r>>12] |= 1 << (uint(r>>6) & 63)
									dirty[r] |= diff
								}
							}
						}
						continue
					}
					gb := int(g) * W
					// Word occupancy masks: lanes toggle at independent
					// instants, so a firing tick usually dirties one word
					// of a wide block. Evaluation, metering and scheduling
					// iterate only the occupied words — a wide run's work
					// stays proportional to actual activity instead of
					// scaling with the block width — and a single-word
					// visit stays inside its own register plane. Fully
					// dirty blocks (aligned cluster starts) take the
					// plane-parallel kernels instead, which issue W
					// independent word ops per compiled op.
					// One pass over the block loads and clears both masks into
					// stack words; the kernel dispatch and the per-word commit
					// below read the cached copies instead of rescanning the
					// bitmap arrays.
					var dArr, fArr [stoch.MaxWords]uint64
					var dw, fw uint32
					for x := 0; x < W; x++ {
						d, f := dirty[gb+x], fire[gb+x]
						dArr[x], fArr[x] = d, f
						if d != 0 {
							dirty[gb+x] = 0
							dw |= 1 << uint(x)
						}
						if f != 0 {
							fire[gb+x] = 0
							fw |= 1 << uint(x)
						}
					}
					if dw != 0 {
						gops := ops[opStart[g]:opStart[g+1]]
						switch {
						case dw != fullW || W == 1:
							for m := dw; m != 0; m &= m - 1 {
								x := bits.TrailingZeros32(m)
								execOps(gops, regs[x*R:x*R+R])
							}
						case W == 4:
							execOpsPlanes4(gops, regs, R)
						case W == 8:
							execOpsPlanes8(gops, regs, R)
						default:
							for x := 0; x < W; x++ {
								execOps(gops, regs[x*R:x*R+R])
							}
						}
					}
					for m := dw | fw; m != 0; m &= m - 1 {
						x := bits.TrailingZeros32(m)
						px := x * R
						if d := dArr[x]; dw&(1<<uint(x)) != 0 {
							for mi := gt.intStart; mi < gt.intEnd; mi++ {
								mp := &meters[mi]
								if diff := (regs[px+int(mp.valueReg)] ^ regs[px+int(mp.stateReg)]) & masks[x]; diff != 0 {
									counts[mi] += int64(bits.OnesCount64(diff))
									if perLane {
										lm.add(mi, x, diff, t)
									}
									regs[px+int(mp.stateReg)] = regs[px+int(mp.valueReg)]
								}
							}
							y := regs[px+int(gt.yReg)]
							// Schedule an update in the lanes re-evaluated this
							// instant whose computed output changed or differs
							// from the net.
							sched := ((y ^ regs[px+int(gt.prevY)]) | (y ^ regs[px+int(gt.out)])) & d
							regs[px+int(gt.prevY)] = y
							if sched != 0 {
								T := t + gt.delay
								slot := &sc.wheel[T%wheelLen]
								if slot.tick != T {
									slot.tick = T
									slot.entries = slot.entries[:0]
									sc.tickHeap = heapPush(sc.tickHeap, T)
								}
								slot.entries = append(slot.entries, fireEntry{gate: g, word: int32(x), lanes: sched})
							}
						}
						if f := fArr[x]; fw&(1<<uint(x)) != 0 {
							// Sample the current computed output: lanes whose
							// pulse already collapsed see no difference and are
							// filtered.
							if diff := (regs[px+int(gt.prevY)] ^ regs[px+int(gt.out)]) & f; diff != 0 {
								regs[px+int(gt.out)] ^= diff
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

// matchInputs maps program input order onto stimulus rows. A nil result
// means the orders coincide (the common case — stimulus is packed from
// the circuit's own input list), avoiding any per-run allocation.
func matchInputs(progInputs, stimInputs []string) ([]int, error) {
	if len(progInputs) == len(stimInputs) {
		same := true
		for i := range progInputs {
			if progInputs[i] != stimInputs[i] {
				same = false
				break
			}
		}
		if same {
			return nil, nil
		}
	}
	idx := make(map[string]int, len(stimInputs))
	for i, in := range stimInputs {
		idx[in] = i
	}
	inRow := make([]int, len(progInputs))
	for i, in := range progInputs {
		row, ok := idx[in]
		if !ok {
			return nil, fmt.Errorf("sim: packed stimulus has no row for input %q", in)
		}
		inRow[i] = row
	}
	return inRow, nil
}

// GenerateLaneWaveforms draws `lanes` independent scenario-A waveform
// sets (exponential inter-transition times) from one rng — the raw
// material for both PackWaveforms (zero delay) and PackTimedWaveforms.
func GenerateLaneWaveforms(inputs []string, stats map[string]stoch.Signal, horizon float64, lanes int, rng *rand.Rand) ([]map[string]*stoch.Waveform, error) {
	return generateLaneWaveforms(inputs, lanes, func() (map[string]*stoch.Waveform, error) {
		return GenerateWaveforms(inputs, stats, horizon, rng)
	})
}

// GenerateClockedLaneWaveforms is the scenario-B counterpart: `lanes`
// independent clocked waveform sets.
func GenerateClockedLaneWaveforms(inputs []string, stats map[string]stoch.Signal, cycles int, period float64, lanes int, rng *rand.Rand) ([]map[string]*stoch.Waveform, error) {
	return generateLaneWaveforms(inputs, lanes, func() (map[string]*stoch.Waveform, error) {
		return GenerateClockedWaveforms(inputs, stats, cycles, period, rng)
	})
}

// autoTick resolves the tick a circuit would get under prm (without
// compiling), used to put a best/worst pair on one shared grid.
func autoTick(c *circuit.Circuit, prm Params) (float64, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return 0, err
	}
	delays, err := gateDelaySeconds(order, c.Fanout(), prm)
	if err != nil {
		return 0, err
	}
	return resolveTick(prm, delays)
}

// ReductionTimed measures (worstPower-bestPower)/worstPower on the timed
// bit-parallel engine — the S column of Table 3 for unit- and
// Elmore-delay runs, up to 64 Monte Carlo vectors per pass. Both circuits
// are compiled onto one shared tick grid (the finer of their automatic
// resolutions unless prm.Tick pins one) and measured under identical
// packed stimulus.
func ReductionTimed(best, worst *circuit.Circuit, laneWaves []map[string]*stoch.Waveform, horizon float64, prm Params) (float64, error) {
	if err := prm.Validate(); err != nil {
		return 0, err
	}
	if prm.Mode == ZeroDelay {
		return 0, fmt.Errorf("sim: ReductionTimed needs a timed delay mode; use MeasureReductionPacked for zero delay")
	}
	if prm.Tick == 0 {
		tb, err := autoTick(best, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: best circuit: %w", err)
		}
		tw, err := autoTick(worst, prm)
		if err != nil {
			return 0, fmt.Errorf("sim: worst circuit: %w", err)
		}
		prm.Tick = tb
		if tw < tb {
			prm.Tick = tw
		}
	}
	pb, err := CompileTimed(best, prm)
	if err != nil {
		return 0, fmt.Errorf("sim: best circuit: %w", err)
	}
	pw, err := CompileTimed(worst, prm)
	if err != nil {
		return 0, fmt.Errorf("sim: worst circuit: %w", err)
	}
	// One stimulus serves both circuits: align with the wider of the two
	// settle windows so the rigid cluster shifts stay exact for each.
	guard := pb.SettleTicks()
	if pw.SettleTicks() > guard {
		guard = pw.SettleTicks()
	}
	stim, err := stoch.PackTimedWaveforms(best.Inputs, laneWaves, horizon, prm.Tick, guard)
	if err != nil {
		return 0, err
	}
	eb, err := pb.RunEnergy(stim)
	if err != nil {
		return 0, fmt.Errorf("sim: best circuit: %w", err)
	}
	ew, err := pw.RunEnergy(stim)
	if err != nil {
		return 0, fmt.Errorf("sim: worst circuit: %w", err)
	}
	if ew == 0 {
		return 0, nil
	}
	// Powers share the lanes·horizon normalization, so the energy ratio
	// is the power ratio.
	return (ew - eb) / ew, nil
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
