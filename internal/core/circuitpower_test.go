package core

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/sp"
	"repro/internal/stoch"
)

// invChain builds a chain of n inverters.
func invChain(n int) *circuit.Circuit {
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	c := &circuit.Circuit{Name: "chain", Inputs: []string{"n0"}, Outputs: []string{nets(n)}}
	for i := 0; i < n; i++ {
		c.Gates = append(c.Gates, &circuit.Instance{
			Name: nets(i + 1),
			Cell: invCell,
			Pins: []string{nets(i)},
			Out:  nets(i + 1),
		})
	}
	return c
}

func nets(i int) string {
	return "n" + string(rune('0'+i))
}

func TestAnalyzeCircuitInverterChain(t *testing.T) {
	// Through a chain of inverters the transition density is preserved, so
	// every stage consumes the same power except for the output stage with
	// its different load.
	prm := DefaultParams()
	c := invChain(3)
	pi := map[string]stoch.Signal{"n0": {P: 0.5, D: 1e5}}
	a, err := AnalyzeCircuit(c, pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PerGate) != 3 {
		t.Fatalf("PerGate has %d entries, want 3", len(a.PerGate))
	}
	sum := 0.0
	for _, p := range a.PerGate {
		sum += p
	}
	if rel := math.Abs(sum-a.Power) / a.Power; rel > 1e-12 {
		t.Errorf("total %g != sum of per-gate %g", a.Power, sum)
	}
	// All nets carry D = 1e5; probabilities alternate 0.5 (P=0.5 is a
	// fixed point of complementation).
	for _, net := range []string{"n0", "n1", "n2", "n3"} {
		s := a.NetStats[net]
		if math.Abs(s.D-1e5) > 1e-6 {
			t.Errorf("net %s density %g, want 1e5", net, s.D)
		}
		if math.Abs(s.P-0.5) > 1e-12 {
			t.Errorf("net %s probability %g, want 0.5", net, s.P)
		}
	}
	// Stages n1 and n2 drive one inverter pin each: identical power.
	if math.Abs(a.PerGate["n1"]-a.PerGate["n2"]) > 1e-18 {
		t.Errorf("identical stages differ: %g vs %g", a.PerGate["n1"], a.PerGate["n2"])
	}
}

func TestAnalyzeCircuitDensityAttenuation(t *testing.T) {
	// A NAND2 with one quiet input attenuates the hot input's density by
	// P(other)=0.5 per level; a chain of such gates shows geometric decay —
	// the "useless transition" filtering the paper's Sec. 1 discusses.
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "atten",
		Inputs:  []string{"hot", "q1", "q2"},
		Outputs: []string{"z"},
		Gates: []*circuit.Instance{
			{Name: "g1", Cell: nandCell, Pins: []string{"hot", "q1"}, Out: "m"},
			{Name: "g2", Cell: nandCell, Pins: []string{"m", "q2"}, Out: "z"},
		},
	}
	pi := map[string]stoch.Signal{
		"hot": {P: 0.5, D: 1e6},
		"q1":  {P: 0.5, D: 0},
		"q2":  {P: 0.5, D: 0},
	}
	a, err := AnalyzeCircuit(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.NetStats["m"].D-5e5) > 1e-6 {
		t.Errorf("D(m) = %g, want 5e5", a.NetStats["m"].D)
	}
	// g2: D(z) = P(q2)·D(m) + P(m)·D(q2) = 0.5·5e5 = 2.5e5 … with
	// P(m)=1-0.25=0.75 and D(q2)=0.
	if math.Abs(a.NetStats["z"].D-2.5e5) > 1e-6 {
		t.Errorf("D(z) = %g, want 2.5e5", a.NetStats["z"].D)
	}
}

func TestAnalyzeCircuitErrors(t *testing.T) {
	c := invChain(1)
	if _, err := AnalyzeCircuit(c, map[string]stoch.Signal{}, DefaultParams()); err == nil {
		t.Error("missing PI stats accepted")
	}
	if _, err := AnalyzeCircuit(c, map[string]stoch.Signal{"n0": {P: 0.5, D: 1}}, Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNetStatisticsMatchesAnalyze(t *testing.T) {
	c := invChain(3)
	pi := map[string]stoch.Signal{"n0": {P: 0.3, D: 7e4}}
	s1, err := NetStatistics(c, pi)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeCircuit(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for net, s := range s1 {
		if math.Abs(s.P-a.NetStats[net].P) > 1e-12 || math.Abs(s.D-a.NetStats[net].D) > 1e-6 {
			t.Errorf("net %s: NetStatistics %v vs AnalyzeCircuit %v", net, s, a.NetStats[net])
		}
	}
}

func TestPowerSplitAddsUp(t *testing.T) {
	c := invChain(3)
	pi := map[string]stoch.Signal{"n0": {P: 0.5, D: 1e5}}
	a, err := AnalyzeCircuit(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.InternalPower+a.OutputPower-a.Power)/a.Power > 1e-12 {
		t.Errorf("split %g + %g != total %g", a.InternalPower, a.OutputPower, a.Power)
	}
	// Inverters have no internal nodes.
	if a.InternalPower != 0 {
		t.Errorf("inverter chain reports internal power %g", a.InternalPower)
	}
}

func TestInternalPowerShareSignificant(t *testing.T) {
	// On a stack-heavy gate the internal nodes must carry real weight —
	// otherwise reordering would have nothing to optimize.
	g := gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)"))
	in := []stoch.Signal{{P: 0.5, D: 1e5}, {P: 0.5, D: 1e5}, {P: 0.5, D: 1e5}}
	a, err := AnalyzeGate(g, in, DefaultParams().OutputLoad(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.InternalPower <= 0 {
		t.Fatal("no internal power on a complex gate")
	}
	share := a.InternalPower / a.Power
	if share < 0.1 || share > 0.9 {
		t.Errorf("internal power share %.2f outside a plausible band", share)
	}
}
