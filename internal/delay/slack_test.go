package delay

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/sp"
)

func TestSlacksChainAllCritical(t *testing.T) {
	prm := DefaultParams()
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	c := &circuit.Circuit{
		Name:    "chain",
		Inputs:  []string{"w0"},
		Outputs: []string{"w3"},
		Gates: []*circuit.Instance{
			{Name: "g1", Cell: invCell, Pins: []string{"w0"}, Out: "w1"},
			{Name: "g2", Cell: invCell, Pins: []string{"w1"}, Out: "w2"},
			{Name: "g3", Cell: invCell, Pins: []string{"w2"}, Out: "w3"},
		},
	}
	rep, err := Slacks(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Critical) != 3 {
		t.Errorf("critical set = %v, want all three gates", rep.Critical)
	}
	if math.Abs(rep.MinSlack) > 1e-18 {
		t.Errorf("MinSlack = %g, want 0", rep.MinSlack)
	}
	for net, s := range rep.Slack {
		if math.Abs(s) > 1e-18 {
			t.Errorf("net %s slack %g on a single chain", net, s)
		}
	}
}

func TestSlacksBranchOffPath(t *testing.T) {
	prm := DefaultParams()
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	// Long branch (2 inverters) and short branch (direct input) into a NAND.
	c := &circuit.Circuit{
		Name:    "branch",
		Inputs:  []string{"x", "y"},
		Outputs: []string{"z"},
		Gates: []*circuit.Instance{
			{Name: "i1", Cell: invCell, Pins: []string{"x"}, Out: "t"},
			{Name: "i2", Cell: invCell, Pins: []string{"t"}, Out: "m"},
			{Name: "g", Cell: nandCell, Pins: []string{"m", "y"}, Out: "z"},
		},
	}
	rep, err := Slacks(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	// The inverter chain and the NAND are critical; the direct y branch is
	// not a gate, so all gates here are critical.
	if rep.Slack["z"] > 1e-18 || rep.Slack["m"] > 1e-18 {
		t.Errorf("critical path gates have positive slack: %v", rep.Slack)
	}
	// Required time of y is later than its arrival (slack in the net
	// sense): required[y] = arrival[z-path] - d(pin y).
	if rep.Required["y"] <= rep.Arrival["y"] {
		t.Errorf("input y should have positive timing margin: req %g vs arr %g",
			rep.Required["y"], rep.Arrival["y"])
	}
	// Arrival/required consistency: slack = required - arrival everywhere.
	for net, s := range rep.Slack {
		if math.Abs((rep.Required[net]-rep.Arrival[net])-s) > 1e-18 {
			t.Errorf("net %s slack inconsistent", net)
		}
	}
}

func TestSlacksMatchCircuitDelay(t *testing.T) {
	prm := DefaultParams()
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "xor",
		Inputs:  []string{"x", "y"},
		Outputs: []string{"z"},
		Gates: []*circuit.Instance{
			{Name: "g1", Cell: nandCell, Pins: []string{"x", "y"}, Out: "t"},
			{Name: "g2", Cell: nandCell, Pins: []string{"x", "t"}, Out: "u"},
			{Name: "g3", Cell: nandCell, Pins: []string{"t", "y"}, Out: "v"},
			{Name: "g4", Cell: nandCell, Pins: []string{"u", "v"}, Out: "z"},
		},
	}
	rep, err := Slacks(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CircuitDelay(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Delay-res.Delay)/res.Delay > 1e-12 {
		t.Errorf("Slacks delay %g != CircuitDelay %g", rep.Delay, res.Delay)
	}
	// No negative slack without external constraints.
	if rep.MinSlack < -1e-18 {
		t.Errorf("negative MinSlack %g", rep.MinSlack)
	}
}

// TestUnknownNetRejected: a gate reading a net that is neither a primary
// input nor driven has no arrival. Both analyses share one forward pass,
// so both reject it instead of reading the arrival as 0.
func TestUnknownNetRejected(t *testing.T) {
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	c := &circuit.Circuit{
		Name:    "dangling",
		Inputs:  []string{"x"},
		Outputs: []string{"z"},
		Gates: []*circuit.Instance{
			{Name: "g", Cell: nandCell, Pins: []string{"x", "ghost"}, Out: "z"},
		},
	}
	if _, err := Slacks(c, DefaultParams()); err == nil {
		t.Error("Slacks accepted a gate reading an unknown net")
	}
	if _, err := CircuitDelay(c, DefaultParams()); err == nil {
		t.Error("CircuitDelay accepted a gate reading an unknown net")
	}
}
