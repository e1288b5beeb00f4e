package sim

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/stoch"
)

// BitResult is a bit-parallel measurement: the embedded Result sums the
// transitions and energy of every active lane, with Power normalized to
// the mean per-lane power (Energy / (Lanes·Horizon)) so it is directly
// comparable with a single-vector Run. Result.Events counts evaluated
// steps: the zero-delay engine's settling instants, the timed engine's
// active ticks.
type BitResult struct {
	Result
	Lanes int // active Monte Carlo lanes

	// Per-lane breakdowns, populated only by RunLanes (nil otherwise):
	// the lane-equivalence property tests compare these against
	// independent oracle runs, one per lane.
	LaneNetTransitions map[string][]int // net → per-lane transition counts
	LaneInternalFlips  []int
	LaneOutputFlips    []int
	LaneEnergy         []float64 // joules per lane
}

// Run evaluates the packed stimulus: one pass over the op array per
// settling step and changed register plane, 64 lanes per plane (up to 512
// lanes in eight planes), transition metering by popcount. The Program is
// read-only; concurrent Runs are safe — including runs of different lane
// widths, whose scratch register files are never shared.
func (p *Program) Run(stim *stoch.PackedStimulus) (*BitResult, error) {
	return p.runMetered(stim, nil)
}

// RunLanes is Run with per-lane metering: the BitResult additionally
// carries per-lane transition counts and energies. The extra bookkeeping
// costs one pass over the set bits of every diff word — proportional to
// the transitions that actually happened, not to lanes × nodes.
func (p *Program) RunLanes(stim *stoch.PackedStimulus) (*BitResult, error) {
	return p.runMetered(stim, &laneMeter{})
}

// RunEnergy is the lean measurement path: total metered energy in joules
// across all lanes, with no per-net result assembly — the sweep engine's
// S column only needs this number. Steady-state calls do not allocate:
// the register file and count slices come from a per-program pool.
func (p *Program) RunEnergy(stim *stoch.PackedStimulus) (float64, error) {
	sc, err := p.execStim(stim, nil)
	if err != nil {
		return 0, err
	}
	var energy float64
	for mi := range p.meters {
		energy += p.meters[mi].energy * float64(sc.counts[mi])
	}
	p.putScratch(sc)
	return energy, nil
}

// runMetered evaluates the stimulus and assembles a BitResult. A non-nil
// lane meter takes the per-lane slow path; a tracing meter additionally
// receives lane 0's final node values.
func (p *Program) runMetered(stim *stoch.PackedStimulus, lm *laneMeter) (*BitResult, error) {
	lm.begin(p.meters, stim.Lanes, 0)
	sc, err := p.execStim(stim, lm)
	if err != nil {
		return nil, err
	}
	br := assembleResult(p.gates, p.meters, stim.Lanes, stim.Steps, stim.Horizon, sc.counts, lm)
	lm.snapshot(sc.regs[:p.numRegs])
	p.putScratch(sc)
	return br, nil
}

// laneMeter is the per-lane slow path both compiled engines share: the
// per-lane counters behind RunLanes and, for RunTrace, a log of lane 0's
// transitions. The measurement paths (Run, RunEnergy) pass a nil meter
// and never reach it.
type laneMeter struct {
	counts [][]int // [meter][lane]
	trace  bool    // log lane 0's transitions

	log    []laneEvent  // lane 0's transitions in evaluation order
	meters []meterPoint // the run's meter points, indexed by laneEvent.meter
	final  []bool       // lane 0's value per meter after the run
	tick   float64      // seconds per tick for timed runs; 0 for zero delay
}

// laneEvent is one lane-0 transition of a traced run: meter point meter
// changed at instant at — a tick of the timed engine, or a settling-step
// index of the zero-delay engine.
type laneEvent struct {
	at    int64
	meter int32
}

// begin prepares the meter for a run over the given meter points (tick is
// the timed engine's tick, 0 for zero delay); nil meters are a no-op.
func (lm *laneMeter) begin(meters []meterPoint, lanes int, tick float64) {
	if lm == nil {
		return
	}
	lm.meters, lm.tick = meters, tick
	lm.counts = make([][]int, len(meters))
	for i := range lm.counts {
		lm.counts[i] = make([]int, lanes)
	}
}

// add scatters a metered diff word of block word `word` into per-lane
// counters and, when tracing, logs a lane-0 transition at instant at.
func (lm *laneMeter) add(mi int32, word int, diff uint64, at int64) {
	lc := lm.counts[mi]
	base := word * stoch.MaxLanes
	for x := diff; x != 0; x &= x - 1 {
		lc[base+bits.TrailingZeros64(x)]++
	}
	if lm.trace && word == 0 && diff&1 != 0 {
		lm.log = append(lm.log, laneEvent{at: at, meter: mi})
	}
}

// snapshot records lane 0's final value of every meter point for a
// traced run; plane0 is the register file's first plane (word 0 of every
// register).
func (lm *laneMeter) snapshot(plane0 []uint64) {
	if lm == nil || !lm.trace {
		return
	}
	lm.final = make([]bool, len(lm.meters))
	for mi, mp := range lm.meters {
		lm.final[mi] = plane0[mp.stateReg]&1 != 0
	}
}

// runScratch is the pooled register file + count slice of one evaluation.
// words records the block width the register file was sized for.
type runScratch struct {
	words  int
	regs   []uint64 // plane-major: word w of register r is [w·numRegs + r]
	counts []int64
}

// getScratch returns a zeroed scratch sized for the requested block width.
// A pooled scratch from a run of a different lane width is dropped, never
// reused at the wrong plane stride, so one Program can serve interleaved
// 64-, 256- and 512-lane runs safely.
func (p *Program) getScratch(words int) *runScratch {
	if sc, ok := p.scratch.Get().(*runScratch); ok && sc.words == words {
		clear(sc.regs)
		clear(sc.counts)
		return sc
	}
	return &runScratch{
		words:  words,
		regs:   make([]uint64, p.numRegs*words),
		counts: make([]int64, len(p.meters)),
	}
}

func (p *Program) putScratch(sc *runScratch) { p.scratch.Put(sc) }

// execStim evaluates the packed stimulus and returns the scratch holding
// raw meter counts; the caller must put it back.
func (p *Program) execStim(stim *stoch.PackedStimulus, lm *laneMeter) (*runScratch, error) {
	if err := stim.Validate(); err != nil {
		return nil, err
	}
	inRow, maskArr, err := p.bind(&stim.Block)
	if err != nil {
		return nil, err
	}
	W := stim.WordWidth()
	masks := maskArr[:W]
	sc := p.getScratch(W)
	regs, counts := sc.regs, sc.counts
	R := p.numRegs

	// t=0 settle: load initial inputs, evaluate, commit without metering.
	for w := 0; w < W; w++ {
		p.loadInitial(regs[w*R:w*R+R], stim.Initial, inRow, W, w, masks[w])
	}
	execPlanes(p.ops, regs, R, W)
	for w := 0; w < W; w++ {
		plane := regs[w*R : w*R+R]
		for _, mp := range p.meters {
			plane[mp.stateReg] = plane[mp.valueReg]
		}
	}

	for s := 0; s < stim.Steps; s++ {
		// Plane-change mask, folded into the input loads that happen
		// anyway. The packed step axis is the union of every lane's
		// settling instants, so at wide widths most steps touch one word
		// of the block: an unchanged plane would recompute exactly the
		// values it already holds and meter all-zero diffs, so it is
		// skipped outright — evaluation cost tracks per-lane activity,
		// not steps × width.
		var chg uint32
		for i, r := range p.inReg {
			row := i
			if inRow != nil {
				row = inRow[i]
			}
			bs := stim.Bits[row][s*W : s*W+W]
			for w, b := range bs {
				if v := b & masks[w]; regs[w*R+int(r)] != v {
					regs[w*R+int(r)] = v
					chg |= 1 << uint(w)
				}
			}
		}
		if chg == 0 {
			continue
		}
		// Half-full or better blocks run every plane (the unchanged ones
		// are recomputed in place, harmlessly); sparser blocks run only
		// the changed planes.
		if 2*bits.OnesCount32(chg) >= W {
			execPlanes(p.ops, regs, R, W)
		} else {
			for m := chg; m != 0; m &= m - 1 {
				w := bits.TrailingZeros32(m)
				execOps(p.ops, regs[w*R:w*R+R])
			}
		}
		// Commit meter by meter, each meter's changed planes together: the
		// plane loads of one meter are independent of each other, where a
		// plane-by-plane pass would re-walk the meter list per plane.
		for mi := range p.meters {
			vr, sr := int(p.meters[mi].valueReg), int(p.meters[mi].stateReg)
			for m := chg; m != 0; m &= m - 1 {
				w := bits.TrailingZeros32(m)
				if d := (regs[w*R+vr] ^ regs[w*R+sr]) & masks[w]; d != 0 {
					counts[mi] += int64(bits.OnesCount64(d))
					if lm != nil {
						lm.add(int32(mi), w, d, int64(s))
					}
					regs[w*R+sr] = regs[w*R+vr]
				}
			}
		}
	}
	return sc, nil
}

// execPlanes runs a compiled op stream once over every plane of a
// plane-major register file of W planes (plane w is regs[w·R:(w+1)·R]):
// four planes at a time, then the remainder one at a time. It is the
// zero-delay engine's dense-evaluation loop; the timed engine evaluates
// one gate on one plane at a time (execOps).
func execPlanes(ops []bitOp, regs []uint64, R, W int) {
	w := 0
	for ; w+4 <= W; w += 4 {
		execOpsPlanes4(ops, regs[w*R:(w+4)*R], R)
	}
	for ; w < W; w++ {
		execOps(ops, regs[w*R:w*R+R])
	}
}

// execOps runs a compiled op stream once over one register plane.
func execOps(ops []bitOp, regs []uint64) {
	for i := range ops {
		op := &ops[i]
		switch op.code {
		case opAnd:
			regs[op.dst] = regs[op.a] & regs[op.b]
		case opOr:
			regs[op.dst] = regs[op.a] | regs[op.b]
		case opAndNot:
			regs[op.dst] = regs[op.a] &^ regs[op.b]
		case opNot:
			regs[op.dst] = ^regs[op.a]
		case opOrNot:
			regs[op.dst] = regs[op.a] | ^regs[op.b]
		case opMux:
			x := regs[op.a]
			regs[op.dst] = x&regs[op.b] | regs[op.c]&^x
		default: // opKeep
			regs[op.dst] = regs[op.a] | regs[op.b]&^regs[op.c]
		}
	}
}

// execOpsPlanes4 runs a compiled op stream once over four consecutive
// register planes at once (plane w is regs[w·R:(w+1)·R]): four
// independent word operations issue per compiled op, the instruction-
// level parallelism a single-plane pass lacks.
func execOpsPlanes4(ops []bitOp, regs []uint64, R int) {
	p0, p1, p2, p3 := regs[0:R], regs[R:2*R], regs[2*R:3*R], regs[3*R:4*R]
	for i := range ops {
		op := &ops[i]
		a, b, c, d := int(op.a), int(op.b), int(op.c), int(op.dst)
		switch op.code {
		case opAnd:
			p0[d], p1[d], p2[d], p3[d] = p0[a]&p0[b], p1[a]&p1[b], p2[a]&p2[b], p3[a]&p3[b]
		case opOr:
			p0[d], p1[d], p2[d], p3[d] = p0[a]|p0[b], p1[a]|p1[b], p2[a]|p2[b], p3[a]|p3[b]
		case opAndNot:
			p0[d], p1[d], p2[d], p3[d] = p0[a]&^p0[b], p1[a]&^p1[b], p2[a]&^p2[b], p3[a]&^p3[b]
		case opNot:
			p0[d], p1[d], p2[d], p3[d] = ^p0[a], ^p1[a], ^p2[a], ^p3[a]
		case opOrNot:
			p0[d], p1[d], p2[d], p3[d] = p0[a]|^p0[b], p1[a]|^p1[b], p2[a]|^p2[b], p3[a]|^p3[b]
		case opMux:
			p0[d] = p0[a]&p0[b] | p0[c]&^p0[a]
			p1[d] = p1[a]&p1[b] | p1[c]&^p1[a]
			p2[d] = p2[a]&p2[b] | p2[c]&^p2[a]
			p3[d] = p3[a]&p3[b] | p3[c]&^p3[a]
		default: // opKeep
			p0[d], p1[d], p2[d], p3[d] = p0[a]|p0[b]&^p0[c], p1[a]|p1[b]&^p1[c], p2[a]|p2[b]&^p2[c], p3[a]|p3[b]&^p3[c]
		}
	}
}

// assembleResult folds raw meter counts into a BitResult — shared by the
// zero-delay and timed bit-parallel engines. steps is the engine's
// settled-instant count, reported as Result.Events.
func assembleResult(gates []*circuit.Instance, meters []meterPoint, lanes, steps int, horizon float64, counts []int64, lm *laneMeter) *BitResult {
	br := &BitResult{
		Result: Result{
			Horizon:        horizon,
			PerGate:        make(map[string]float64, len(gates)),
			NetTransitions: make(map[string]int, len(meters)),
			Events:         steps,
		},
		Lanes: lanes,
	}
	perLane := lm != nil
	if perLane {
		br.LaneNetTransitions = map[string][]int{}
		br.LaneInternalFlips = make([]int, lanes)
		br.LaneOutputFlips = make([]int, lanes)
		br.LaneEnergy = make([]float64, lanes)
	}
	for _, g := range gates {
		br.PerGate[g.Name] = 0
	}
	for mi := range meters {
		mp := &meters[mi]
		n := int(counts[mi])
		e := mp.energy * float64(n)
		br.Energy += e
		if mp.gate >= 0 {
			br.PerGate[gates[mp.gate].Name] += e
		}
		switch mp.kind {
		case meterInput, meterOutput:
			br.NetTransitions[mp.net] += n
			if mp.kind == meterOutput {
				br.OutputFlips += n
			}
		case meterInternal:
			br.InternalFlips += n
		}
		if perLane {
			lc := lm.counts[mi]
			if mp.kind == meterInput || mp.kind == meterOutput {
				row := br.LaneNetTransitions[mp.net]
				if row == nil {
					row = make([]int, lanes)
					br.LaneNetTransitions[mp.net] = row
				}
				for l, c := range lc {
					row[l] += c
				}
			}
			for l, c := range lc {
				switch mp.kind {
				case meterOutput:
					br.LaneOutputFlips[l] += c
				case meterInternal:
					br.LaneInternalFlips[l] += c
				}
				br.LaneEnergy[l] += mp.energy * float64(c)
			}
		}
	}
	br.Power = br.Energy / (float64(lanes) * horizon)
	return br
}
