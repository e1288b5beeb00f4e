package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/stoch"
)

// BitResult is a bit-parallel measurement: the embedded Result sums the
// transitions and energy of every active lane, with Power normalized to
// the mean per-lane power (Energy / (Lanes·Horizon)) so it is directly
// comparable with a single-vector Run. Result.Events counts evaluated
// steps.
type BitResult struct {
	Result
	Lanes int // active Monte Carlo lanes
	Steps int // settling instants evaluated

	// Per-lane breakdowns, populated only by RunLanes (nil otherwise):
	// the lane-equivalence property tests compare these against
	// independent oracle runs, one per lane.
	LaneNetTransitions map[string][]int // net → per-lane transition counts
	LaneInternalFlips  []int
	LaneOutputFlips    []int
	LaneEnergy         []float64 // joules per lane
}

// RunPacked compiles the circuit and evaluates the packed stimulus on the
// zero-delay bit-parallel engine. prm must describe a zero-delay setup;
// timed setups go through CompileTimed and a TimedStimulus instead (the
// per-lane settling instants of a PackedStimulus carry no shared clock).
func RunPacked(c *circuit.Circuit, stim *stoch.PackedStimulus, prm Params) (*BitResult, error) {
	if prm.Mode != ZeroDelay {
		return nil, fmt.Errorf("sim: RunPacked is zero-delay only: %s delay needs CompileTimed and a timed stimulus", prm.Mode.name())
	}
	p, err := Compile(c, prm)
	if err != nil {
		return nil, err
	}
	return p.Run(stim)
}

// Run evaluates the packed stimulus: one pass over the op array per
// settling step, 64 lanes per register-block word (up to 512 lanes in an
// 8-word block), transition metering by popcount. The Program is
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
	lm.snapshot(func(reg int32) uint64 { return sc.regs[int(reg)*sc.words] })
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
// traced run; word0 returns word 0 of a register.
func (lm *laneMeter) snapshot(word0 func(reg int32) uint64) {
	if lm == nil || !lm.trace {
		return
	}
	lm.final = make([]bool, len(lm.meters))
	for mi, mp := range lm.meters {
		lm.final[mi] = word0(mp.stateReg)&1 != 0
	}
}

// runScratch is the pooled register file + count slice of one evaluation.
// words records the block width the register file was sized for.
type runScratch struct {
	words  int
	regs   []uint64
	counts []int64
}

// getScratch returns a zeroed scratch whose register file matches the
// requested block width. Pooled buffers sized for a different width are
// never handed out at the wrong stride — a stimulus of another lane width
// forces the register file to be reallocated, so one Program can serve
// interleaved 64-, 256- and 512-lane runs safely.
func (p *Program) getScratch(words int) *runScratch {
	if sc, ok := p.scratch.Get().(*runScratch); ok {
		if sc.words != words {
			sc.words = words
			sc.regs = make([]uint64, p.numRegs*words)
		}
		for i := range sc.regs {
			sc.regs[i] = 0
		}
		for i := range sc.counts {
			sc.counts[i] = 0
		}
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
	inRow, err := matchInputs(p.inputs, stim.Inputs)
	if err != nil {
		return nil, err
	}
	W := stim.WordWidth()
	var maskArr [stoch.MaxWords]uint64
	for w := 0; w < W; w++ {
		maskArr[w] = stim.WordMask(w)
	}
	masks := maskArr[:W]
	sc := p.getScratch(W)
	regs, counts := sc.regs, sc.counts
	for w := 0; w < W; w++ {
		regs[W+w] = ^uint64(0) // register 1: the all-ones constant block
	}

	// t=0 settle: load initial inputs, evaluate, commit without metering.
	for i, r := range p.inReg {
		row := i
		if inRow != nil {
			row = inRow[i]
		}
		for w := 0; w < W; w++ {
			regs[int(r)*W+w] = stim.Initial[row*W+w] & masks[w]
		}
	}
	runOps(p.ops, regs, W)
	for _, mp := range p.meters {
		copy(regs[int(mp.stateReg)*W:int(mp.stateReg)*W+W], regs[int(mp.valueReg)*W:int(mp.valueReg)*W+W])
	}

	for s := 0; s < stim.Steps; s++ {
		// Word-change mask, folded into the input loads that happen anyway.
		// The packed step axis is the union of every lane's settling
		// instants, so at wide widths most steps touch one word of the
		// block: an unchanged word would recompute exactly the values it
		// already holds and meter all-zero diffs, so it is skipped outright
		// — evaluation cost tracks per-lane activity, not steps × width.
		var chg uint32
		for i, r := range p.inReg {
			row := i
			if inRow != nil {
				row = inRow[i]
			}
			rb, sb := int(r)*W, s*W
			for w := 0; w < W; w++ {
				if v := stim.Bits[row][sb+w] & masks[w]; regs[rb+w] != v {
					regs[rb+w] = v
					chg |= 1 << uint(w)
				}
			}
		}
		if chg == 0 {
			continue
		}
		// Half-full or better blocks run the full-width SIMD kernels (the
		// unchanged words are recomputed in place, harmlessly); sparser
		// blocks take the strided single-word kernel per changed word.
		if k := bits.OnesCount32(chg); 2*k >= W {
			runOps(p.ops, regs, W)
		} else {
			for m := chg; m != 0; m &= m - 1 {
				runOpsWord(p.ops, regs, W, bits.TrailingZeros32(m))
			}
		}
		for mi := range p.meters {
			mp := &p.meters[mi]
			vb, sb := int(mp.valueReg)*W, int(mp.stateReg)*W
			for m := chg; m != 0; m &= m - 1 {
				w := bits.TrailingZeros32(m)
				d := (regs[vb+w] ^ regs[sb+w]) & masks[w]
				if d != 0 {
					counts[mi] += int64(bits.OnesCount64(d))
					if lm != nil {
						lm.add(int32(mi), w, d, int64(s))
					}
					regs[sb+w] = regs[vb+w]
				}
			}
		}
	}
	return sc, nil
}

// runOps runs a compiled op stream once over a register file of W-word
// blocks: register r is regs[r·W:(r+1)·W]. W ∈ {1, 4, 8} dispatch to
// straight-line kernels whose fixed-size array blocks the compiler can
// keep in vector registers; other widths take the generic block loop.
func runOps(ops []bitOp, regs []uint64, words int) {
	switch words {
	case 1:
		execOps(ops, regs)
	case 4:
		execOps4(ops, regs)
	case 8:
		execOps8(ops, regs)
	default:
		execOpsN(ops, regs, words)
	}
}

// execOps runs a compiled op stream once over a 1-word register file.
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
		default: // opNot
			regs[op.dst] = ^regs[op.a]
		}
	}
}

// execOps4 is the 4-word (256-lane) kernel: fixed-size array pointers per
// block so each op is four independent word operations with no
// loop-carried dependence — the shape the auto-vectorizer wants.
func execOps4(ops []bitOp, regs []uint64) {
	for i := range ops {
		op := &ops[i]
		dst := (*[4]uint64)(regs[int(op.dst)*4:])
		a := (*[4]uint64)(regs[int(op.a)*4:])
		switch op.code {
		case opAnd:
			b := (*[4]uint64)(regs[int(op.b)*4:])
			dst[0], dst[1], dst[2], dst[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
		case opOr:
			b := (*[4]uint64)(regs[int(op.b)*4:])
			dst[0], dst[1], dst[2], dst[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
		case opAndNot:
			b := (*[4]uint64)(regs[int(op.b)*4:])
			dst[0], dst[1], dst[2], dst[3] = a[0]&^b[0], a[1]&^b[1], a[2]&^b[2], a[3]&^b[3]
		default: // opNot
			dst[0], dst[1], dst[2], dst[3] = ^a[0], ^a[1], ^a[2], ^a[3]
		}
	}
}

// execOps8 is the 8-word (512-lane) kernel.
func execOps8(ops []bitOp, regs []uint64) {
	for i := range ops {
		op := &ops[i]
		dst := (*[8]uint64)(regs[int(op.dst)*8:])
		a := (*[8]uint64)(regs[int(op.a)*8:])
		switch op.code {
		case opAnd:
			b := (*[8]uint64)(regs[int(op.b)*8:])
			for w := 0; w < 8; w++ {
				dst[w] = a[w] & b[w]
			}
		case opOr:
			b := (*[8]uint64)(regs[int(op.b)*8:])
			for w := 0; w < 8; w++ {
				dst[w] = a[w] | b[w]
			}
		case opAndNot:
			b := (*[8]uint64)(regs[int(op.b)*8:])
			for w := 0; w < 8; w++ {
				dst[w] = a[w] &^ b[w]
			}
		default: // opNot
			for w := 0; w < 8; w++ {
				dst[w] = ^a[w]
			}
		}
	}
}

// runOpsWord runs a compiled op stream over a single word w of a W-word
// block-interleaved register file (register r's word w is regs[r·W+w]) —
// the zero-delay engine's sparse-step kernel, for steps that touch a
// strict minority of a wide block's words.
func runOpsWord(ops []bitOp, regs []uint64, W, w int) {
	for i := range ops {
		op := &ops[i]
		switch op.code {
		case opAnd:
			regs[int(op.dst)*W+w] = regs[int(op.a)*W+w] & regs[int(op.b)*W+w]
		case opOr:
			regs[int(op.dst)*W+w] = regs[int(op.a)*W+w] | regs[int(op.b)*W+w]
		case opAndNot:
			regs[int(op.dst)*W+w] = regs[int(op.a)*W+w] &^ regs[int(op.b)*W+w]
		default: // opNot
			regs[int(op.dst)*W+w] = ^regs[int(op.a)*W+w]
		}
	}
}

// execOpsPlanes4 runs a compiled op stream once over four plane-major
// register files at once (plane w is regs[w·R:(w+1)·R]) — the timed
// engine's dense-instant kernel. Four independent word operations issue
// per compiled op, recovering the instruction-level parallelism of the
// block-interleaved execOps4 without giving up the plane layout the
// sparse single-word path needs.
func execOpsPlanes4(ops []bitOp, regs []uint64, R int) {
	p0, p1, p2, p3 := regs[0:R], regs[R:2*R], regs[2*R:3*R], regs[3*R:4*R]
	for i := range ops {
		op := &ops[i]
		a, b, d := int(op.a), int(op.b), int(op.dst)
		switch op.code {
		case opAnd:
			p0[d], p1[d], p2[d], p3[d] = p0[a]&p0[b], p1[a]&p1[b], p2[a]&p2[b], p3[a]&p3[b]
		case opOr:
			p0[d], p1[d], p2[d], p3[d] = p0[a]|p0[b], p1[a]|p1[b], p2[a]|p2[b], p3[a]|p3[b]
		case opAndNot:
			p0[d], p1[d], p2[d], p3[d] = p0[a]&^p0[b], p1[a]&^p1[b], p2[a]&^p2[b], p3[a]&^p3[b]
		default: // opNot
			p0[d], p1[d], p2[d], p3[d] = ^p0[a], ^p1[a], ^p2[a], ^p3[a]
		}
	}
}

// execOpsPlanes8 is the eight-plane form of execOpsPlanes4.
func execOpsPlanes8(ops []bitOp, regs []uint64, R int) {
	execOpsPlanes4(ops, regs[:4*R], R)
	execOpsPlanes4(ops, regs[4*R:], R)
}

// execOpsN is the generic block kernel for widths without a specialized
// form.
func execOpsN(ops []bitOp, regs []uint64, words int) {
	for i := range ops {
		op := &ops[i]
		dst := regs[int(op.dst)*words:][:words]
		a := regs[int(op.a)*words:][:words:words]
		switch op.code {
		case opAnd:
			b := regs[int(op.b)*words:][:words:words]
			for w := range dst {
				dst[w] = a[w] & b[w]
			}
		case opOr:
			b := regs[int(op.b)*words:][:words:words]
			for w := range dst {
				dst[w] = a[w] | b[w]
			}
		case opAndNot:
			b := regs[int(op.b)*words:][:words:words]
			for w := range dst {
				dst[w] = a[w] &^ b[w]
			}
		default: // opNot
			for w := range dst {
				dst[w] = ^a[w]
			}
		}
	}
}

// assembleResult folds raw meter counts into a BitResult — shared by the
// zero-delay and timed bit-parallel engines. steps is the engine's
// settled-instant count (also reported as Result.Events).
func assembleResult(gates []*circuit.Instance, meters []meterPoint, lanes, steps int, horizon float64, counts []int64, lm *laneMeter) *BitResult {
	br := &BitResult{
		Result: Result{
			Horizon:        horizon,
			PerGate:        make(map[string]float64, len(gates)),
			NetTransitions: make(map[string]int, len(meters)),
			Events:         steps,
		},
		Lanes: lanes,
		Steps: steps,
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

// GeneratePackedWaveforms draws `lanes` independent scenario-A waveform
// sets (exponential inter-transition times) from one rng and bit-packs
// them: lane l is Monte Carlo trial l. A fixed seed reproduces the exact
// stimulus, so best and worst circuits can be measured under identical
// vectors.
func GeneratePackedWaveforms(inputs []string, stats map[string]stoch.Signal, horizon float64, lanes int, rng *rand.Rand) (*stoch.PackedStimulus, error) {
	laneWaves, err := generateLaneWaveforms(inputs, lanes, func() (map[string]*stoch.Waveform, error) {
		return GenerateWaveforms(inputs, stats, horizon, rng)
	})
	if err != nil {
		return nil, err
	}
	return stoch.PackWaveforms(inputs, laneWaves, horizon)
}

// GeneratePackedClockedWaveforms is the scenario-B counterpart: `lanes`
// independent clocked waveform sets, packed. The horizon is cycles·period.
func GeneratePackedClockedWaveforms(inputs []string, stats map[string]stoch.Signal, cycles int, period float64, lanes int, rng *rand.Rand) (*stoch.PackedStimulus, error) {
	laneWaves, err := generateLaneWaveforms(inputs, lanes, func() (map[string]*stoch.Waveform, error) {
		return GenerateClockedWaveforms(inputs, stats, cycles, period, rng)
	})
	if err != nil {
		return nil, err
	}
	return stoch.PackWaveforms(inputs, laneWaves, float64(cycles)*period)
}

func generateLaneWaveforms(inputs []string, lanes int, gen func() (map[string]*stoch.Waveform, error)) ([]map[string]*stoch.Waveform, error) {
	if lanes < 1 || lanes > stoch.MaxPackLanes {
		return nil, fmt.Errorf("sim: %d vectors out of [1,%d] per packed run", lanes, stoch.MaxPackLanes)
	}
	laneWaves := make([]map[string]*stoch.Waveform, lanes)
	for l := range laneWaves {
		w, err := gen()
		if err != nil {
			return nil, err
		}
		laneWaves[l] = w
	}
	return laneWaves, nil
}

// ReductionPacked is the lean form of MeasureReductionPacked: the
// reduction alone, measured through the pooled RunEnergy path — the sweep
// engine's zero-delay hot loop.
func ReductionPacked(best, worst *circuit.Circuit, stim *stoch.PackedStimulus, prm Params) (float64, error) {
	if prm.Mode != ZeroDelay {
		return 0, fmt.Errorf("sim: the zero-delay bit-parallel engine got %s delay: use ReductionTimed", prm.Mode.name())
	}
	pb, err := Compile(best, prm)
	if err != nil {
		return 0, fmt.Errorf("sim: best circuit: %w", err)
	}
	pw, err := Compile(worst, prm)
	if err != nil {
		return 0, fmt.Errorf("sim: worst circuit: %w", err)
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
	return (ew - eb) / ew, nil
}

// MeasureReductionPacked measures (worstPower-bestPower)/worstPower on
// the bit-parallel engine under identical packed stimulus — the S column
// of Table 3 for zero-delay runs, 64 Monte Carlo vectors per pass.
func MeasureReductionPacked(best, worst *circuit.Circuit, stim *stoch.PackedStimulus, prm Params) (float64, *BitResult, *BitResult, error) {
	rb, err := RunPacked(best, stim, prm)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("sim: best circuit: %w", err)
	}
	rw, err := RunPacked(worst, stim, prm)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("sim: worst circuit: %w", err)
	}
	if rw.Power == 0 {
		return 0, rb, rw, nil
	}
	return (rw.Power - rb.Power) / rw.Power, rb, rw, nil
}
