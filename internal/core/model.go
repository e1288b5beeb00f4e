package core

import (
	"fmt"
	"math"

	"repro/internal/gate"
	"repro/internal/logic"
	"repro/internal/stoch"
)

// NodeAnalysis is the model's view of one gate node: its capacitance,
// steady-state probability, per-input transition counts and power.
type NodeAnalysis struct {
	Node    gate.NodeID
	Name    string
	Cap     float64   // farads
	P       float64   // equilibrium probability of the node being 1
	TByIn   []float64 // transitions/sec attributable to each input
	T       float64   // total transitions/sec (sum of TByIn)
	Power   float64   // watts
	PH, PG  float64   // P(H_nk), P(G_nk), for diagnostics
	IsOut   bool
	Sources int // transistor terminals on the node (capacitance sources)
}

// GateAnalysis is the full model evaluation of one gate configuration
// under given input statistics.
type GateAnalysis struct {
	Gate          *gate.Gate
	Inputs        []stoch.Signal // per pin, in pin order
	Nodes         []NodeAnalysis // internal nodes first, output node last
	Power         float64        // watts, sum over nodes
	InternalPower float64        // watts dissipated at internal nodes only
	OutputPower   float64        // watts dissipated at the output node
	Out           stoch.Signal   // output statistics to propagate (P(y), D(y))
}

// AnalyzeGate evaluates the extended power model (Sec. 3.3) for one gate
// configuration. loadCap is the external capacitance on the output node
// (fanout gate pins and wire); prm supplies the electrical constants.
func AnalyzeGate(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) (*GateAnalysis, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if len(in) != len(g.Inputs) {
		return nil, fmt.Errorf("core: gate %s has %d inputs, got %d signals", g.Name, len(g.Inputs), len(in))
	}
	if err := checkLoad(loadCap); err != nil {
		return nil, err
	}
	probs := make([]float64, len(in))
	for i, s := range in {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: gate %s input %s: %w", g.Name, g.Inputs[i], err)
		}
		probs[i] = s.P
	}
	tmpl, err := templateOf(g)
	if err != nil {
		return nil, err
	}
	a := &GateAnalysis{Gate: g, Inputs: append([]stoch.Signal(nil), in...)}
	halfCV2 := 0.5 * prm.Vdd * prm.Vdd
	for _, tn := range tmpl.nodes {
		ph := tn.h.Prob(probs)
		pg := tn.g.Prob(probs)
		na := NodeAnalysis{
			Node:    tn.id,
			Name:    tn.name,
			IsOut:   tn.isOut,
			Sources: tn.sources,
			PH:      ph,
			PG:      pg,
			TByIn:   make([]float64, len(in)),
		}
		na.Cap = prm.Cj * float64(na.Sources)
		if na.IsOut {
			na.Cap += loadCap
		}
		if ph+pg > 0 {
			na.P = ph / (ph + pg)
		}
		for i := range in {
			dh := tn.dh[i].Prob(probs)
			dg := tn.dg[i].Prob(probs)
			t := in[i].D * ((1-na.P)*dh + na.P*dg)
			na.TByIn[i] = t
			na.T += t
		}
		na.Power = halfCV2 * na.Cap * na.T
		a.Power += na.Power
		if na.IsOut {
			a.OutputPower += na.Power
			a.Out = stoch.Signal{P: na.P, D: na.T}
		} else {
			a.InternalPower += na.Power
		}
		a.Nodes = append(a.Nodes, na)
	}
	return a, nil
}

// ConfigPower is the summary evaluation of one candidate configuration:
// the power split of AnalyzeGate without the per-node breakdown, plus the
// output statistics the configuration would propagate (identical for all
// configurations of a cell — the Section 4.2 monotonic property; exposed
// so callers can assert it).
type ConfigPower struct {
	Config        *gate.Gate
	Power         float64 // watts, total
	InternalPower float64 // watts at internal nodes
	OutputPower   float64 // watts at the output node
	Out           stoch.Signal
}

// evalTemplate evaluates the power model for one configuration template
// without allocating: the summary-only counterpart of AnalyzeGate's node
// loop, arithmetic kept operation-for-operation identical so both paths
// produce bit-equal results. table must be the logic.MintermTable of the
// pins' probabilities, so each ProbTable equals AnalyzeGate's Prob; the
// caller builds it once and shares it across candidates.
func evalTemplate(t *template, in []stoch.Signal, table []float64, loadCap float64, prm Params) ConfigPower {
	halfCV2 := 0.5 * prm.Vdd * prm.Vdd
	var cp ConfigPower
	for i := range t.nodes {
		tn := &t.nodes[i]
		ph := tn.h.ProbTable(table)
		pg := tn.g.ProbTable(table)
		var p float64
		if ph+pg > 0 {
			p = ph / (ph + pg)
		}
		var total float64
		for k := range in {
			dh := tn.dh[k].ProbTable(table)
			dg := tn.dg[k].ProbTable(table)
			total += in[k].D * ((1-p)*dh + p*dg)
		}
		c := prm.Cj * float64(tn.sources)
		if tn.isOut {
			c += loadCap
		}
		power := halfCV2 * c * total
		cp.Power += power
		if tn.isOut {
			cp.OutputPower += power
			cp.Out = stoch.Signal{P: p, D: total}
		} else {
			cp.InternalPower += power
		}
	}
	return cp
}

// evalConfig evaluates one configuration through its cached template:
// the summary evaluation every caller in the package shares. table must
// be the pins' minterm table, as prepared by ConfigAnalyzer.prepare.
func evalConfig(cfg *gate.Gate, in []stoch.Signal, table []float64, loadCap float64, prm Params) (ConfigPower, error) {
	tmpl, err := templateOf(cfg)
	if err != nil {
		return ConfigPower{}, err
	}
	cp := evalTemplate(tmpl, in, table, loadCap, prm)
	cp.Config = cfg
	return cp, nil
}

// ConfigAnalyzer amortizes the summary evaluator's scratch (the pin
// signals, the probability vector, its minterm table and the result
// slice) across many calls — one analyzer per worker goroutine in the
// optimizer's hot loop and in the incremental engine, so steady-state
// evaluation allocates nothing per gate. Results returned by Analyze are valid until the next
// call; copy the ConfigPower values to retain them. The zero value is
// ready to use; it is not safe for concurrent use.
type ConfigAnalyzer struct {
	in    []stoch.Signal
	probs []float64
	table []float64 // logic.MintermTable(probs)
	out   []ConfigPower
}

// Analyze evaluates every configuration in cfgs against one input-
// signal/load vector in a single pass: parameters and signals are
// validated once and the minterm table is built once. Results
// keep the order of cfgs — a cell's AllConfigs (sorted by ConfigKey), one
// layout instance, or the delay-feasible survivors of the delay-neutral
// mode — so selection over them is deterministic.
func (a *ConfigAnalyzer) Analyze(cfgs []*gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]ConfigPower, error) {
	out := a.results(len(cfgs))
	if len(cfgs) == 0 {
		return out, nil
	}
	if err := a.prepare(cfgs[0], in, loadCap, prm); err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		err := checkArity(cfg, in)
		if err == nil {
			out[i], err = evalConfig(cfg, in, a.table, loadCap, prm)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkLoad rejects an output load that is negative, NaN or infinite.
func checkLoad(loadCap float64) error {
	if !(loadCap >= 0) || math.IsInf(loadCap, 1) {
		return fmt.Errorf("core: load capacitance %v is not finite and non-negative", loadCap)
	}
	return nil
}

// checkArity verifies one signal per pin of g.
func checkArity(g *gate.Gate, in []stoch.Signal) error {
	if len(in) != len(g.Inputs) {
		return fmt.Errorf("core: gate %s has %d inputs, got %d signals", g.Name, len(g.Inputs), len(in))
	}
	return nil
}

// prepare validates the evaluation inputs against configuration g (whose
// pin list every configuration of the cell shares) and fills the
// analyzer's probability vector and minterm table.
func (a *ConfigAnalyzer) prepare(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) error {
	if err := prm.Validate(); err != nil {
		return err
	}
	if err := checkArity(g, in); err != nil {
		return err
	}
	if err := checkLoad(loadCap); err != nil {
		return err
	}
	if cap(a.probs) < len(in) {
		a.probs = make([]float64, len(in))
	}
	probs := a.probs[:len(in)]
	for i, s := range in {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: gate %s input %s: %w", g.Name, g.Inputs[i], err)
		}
		probs[i] = s.P
	}
	a.table = logic.MintermTable(a.table, probs)
	return nil
}

// results returns the analyzer's result scratch resized to n.
func (a *ConfigAnalyzer) results(n int) []ConfigPower {
	if cap(a.out) < n {
		a.out = make([]ConfigPower, n)
	}
	return a.out[:n]
}

// AnalyzeConfigs evaluates every configuration of the gate's cell, in
// AllConfigs order, on a fresh analyzer; the returned slice is the
// caller's own.
func AnalyzeConfigs(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]ConfigPower, error) {
	var a ConfigAnalyzer
	return a.Analyze(g.AllConfigs(), in, loadCap, prm)
}

// Pick returns the index of the minimum-power candidate, or of the
// maximum-power one when maximize is set. The comparison is strict, so
// ties go to the earliest candidate: over AllConfigs order the choice is
// pinned whatever order the candidates were evaluated in.
func Pick(cands []ConfigPower, maximize bool) (int, error) {
	if len(cands) == 0 {
		return 0, fmt.Errorf("core: no candidate configurations")
	}
	k := 0
	for i := 1; i < len(cands); i++ {
		if maximize && cands[i].Power > cands[k].Power || !maximize && cands[i].Power < cands[k].Power {
			k = i
		}
	}
	return k, nil
}

// OutputStats computes only the output-node statistics (Najm's transition
// density and the Parker–McCluskey probability) without the per-node power
// evaluation — the cheap propagation step used on nets whose driving gate
// is not currently being reordered.
func OutputStats(g *gate.Gate, in []stoch.Signal) (stoch.Signal, error) {
	if len(in) != len(g.Inputs) {
		return stoch.Signal{}, fmt.Errorf("core: gate %s has %d inputs, got %d signals", g.Name, len(g.Inputs), len(in))
	}
	probs := make([]float64, len(in))
	for i, s := range in {
		if err := s.Validate(); err != nil {
			return stoch.Signal{}, fmt.Errorf("core: gate %s input %s: %w", g.Name, g.Inputs[i], err)
		}
		probs[i] = s.P
	}
	f, err := g.Func()
	if err != nil {
		return stoch.Signal{}, err
	}
	out := stoch.Signal{P: f.Prob(probs)}
	for i := range in {
		out.D += f.Diff(i).Prob(probs) * in[i].D
	}
	return out, nil
}

// BestConfig evaluates every configuration of the gate under the given
// input statistics and returns the minimum-power one together with its
// analysis. The input statistics are bound to the gate's pins by position:
// reorderings permute transistors, not the pin-to-net binding.
func BestConfig(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) (*GateAnalysis, error) {
	return extremeConfig(g, in, loadCap, prm, false)
}

// WorstConfig is BestConfig's counterpart used to measure the best-versus-
// worst reduction reported in Table 3.
func WorstConfig(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) (*GateAnalysis, error) {
	return extremeConfig(g, in, loadCap, prm, true)
}

// extremeConfig picks over the batch evaluation, whose powers equal
// AnalyzeGate's bit for bit, and runs the full analysis on the winner
// only.
func extremeConfig(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params, maximize bool) (*GateAnalysis, error) {
	cands, err := AnalyzeConfigs(g, in, loadCap, prm)
	if err != nil {
		return nil, err
	}
	k, err := Pick(cands, maximize)
	if err != nil {
		return nil, err
	}
	return AnalyzeGate(cands[k].Config, in, loadCap, prm)
}
