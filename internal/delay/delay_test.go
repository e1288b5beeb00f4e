package delay

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/sp"
	"repro/internal/stoch"
)

func TestInverterDelayClosedForm(t *testing.T) {
	prm := DefaultParams()
	g := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	load := 10e-15
	d, err := PinDelays(g, load, prm)
	if err != nil {
		t.Fatal(err)
	}
	cy := 2*prm.Cap.Cj + load
	want := math.Max(prm.Rn*cy, prm.Rp*cy)
	if math.Abs(d[0]-want)/want > 1e-12 {
		t.Errorf("inverter delay = %g, want %g", d[0], want)
	}
}

func TestNand2PositionEffect(t *testing.T) {
	// In s(a,b) (a near output, b near ground) the falling transition
	// through b must also discharge the internal node: pin b is slower.
	prm := DefaultParams()
	g := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	load := 5e-15
	d, err := PinDelays(g, load, prm)
	if err != nil {
		t.Fatal(err)
	}
	if d[1] <= d[0] {
		t.Errorf("bottom pin (%g) not slower than top pin (%g)", d[1], d[0])
	}
	// Exact values: C_Y = 3Cj+load; C_n0 = 2Cj.
	cy := 3*prm.Cap.Cj + load
	cn := 2 * prm.Cap.Cj
	wantTop := math.Max(2*prm.Rn*cy, prm.Rp*cy)
	wantBot := math.Max(2*prm.Rn*cy+prm.Rn*cn, prm.Rp*cy)
	if math.Abs(d[0]-wantTop)/wantTop > 1e-12 {
		t.Errorf("top pin delay = %g, want %g", d[0], wantTop)
	}
	if math.Abs(d[1]-wantBot)/wantBot > 1e-12 {
		t.Errorf("bottom pin delay = %g, want %g", d[1], wantBot)
	}
}

func TestNand3MonotonePositions(t *testing.T) {
	prm := DefaultParams()
	g := gate.MustNew("nand3", []string{"a", "b", "c"}, sp.MustParse("s(a,b,c)"))
	d, err := PinDelays(g, 0, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !(d[0] <= d[1] && d[1] <= d[2]) {
		t.Errorf("pin delays not monotone with stack depth: %v", d)
	}
}

func TestDelayOptimalPutsLateInputNearOutput(t *testing.T) {
	prm := DefaultParams()
	g := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	// b arrives late: the optimal configuration has b near the output.
	cfg, arr, err := DelayOptimal(g, []float64{0, 5e-9}, 0, prm)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PD.String() != "s(b,a)" {
		t.Errorf("delay-optimal PD = %s, want s(b,a)", cfg.PD)
	}
	// And symmetric: a late puts a near output.
	cfg2, arr2, err := DelayOptimal(g, []float64{5e-9, 0}, 0, prm)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.PD.String() != "s(a,b)" {
		t.Errorf("delay-optimal PD = %s, want s(a,b)", cfg2.PD)
	}
	if math.Abs(arr-arr2) > 1e-15 {
		t.Errorf("symmetric cases gave different arrivals: %g vs %g", arr, arr2)
	}
}

func TestDelayVsPowerRuleConflict(t *testing.T) {
	// Section 5 of the paper: the delay rule (critical/late transistor near
	// the output) can contradict the low-power placement. Make pin a late
	// but quiet and pin b early but hot: the delay-optimal and
	// power-optimal configurations must differ.
	dprm := DefaultParams()
	pprm := core.DefaultParams()
	g := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	delayCfg, _, err := DelayOptimal(g, []float64{5e-9, 0}, 0, dprm)
	if err != nil {
		t.Fatal(err)
	}
	powerCfg, err := core.BestConfig(g, []stoch.Signal{{P: 0.5, D: 1e4}, {P: 0.5, D: 1e6}}, 0, pprm)
	if err != nil {
		t.Fatal(err)
	}
	if delayCfg.ConfigKey() == powerCfg.Gate.ConfigKey() {
		t.Errorf("expected conflicting optima, both chose %s", delayCfg.ConfigKey())
	}
}

func TestCircuitDelayChain(t *testing.T) {
	prm := DefaultParams()
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	c := &circuit.Circuit{
		Name:    "chain",
		Inputs:  []string{"n0"},
		Outputs: []string{"n3"},
		Gates: []*circuit.Instance{
			{Name: "i1", Cell: invCell, Pins: []string{"n0"}, Out: "n1"},
			{Name: "i2", Cell: invCell, Pins: []string{"n1"}, Out: "n2"},
			{Name: "i3", Cell: invCell, Pins: []string{"n2"}, Out: "n3"},
		},
	}
	res, err := CircuitDelay(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	// Every stage drives one load (a pin or the PO): identical stage delay.
	cy := 2*prm.Cap.Cj + prm.Cap.OutputLoad(1)
	stage := prm.Rp * cy
	if math.Abs(res.Delay-3*stage)/res.Delay > 1e-12 {
		t.Errorf("chain delay = %g, want %g", res.Delay, 3*stage)
	}
	if len(res.Critical) != 3 {
		t.Errorf("critical path has %d gates, want 3", len(res.Critical))
	}
	if res.Arrival["n1"] >= res.Arrival["n2"] {
		t.Error("arrivals not increasing along the chain")
	}
}

func TestCircuitDelayPicksLongerBranch(t *testing.T) {
	prm := DefaultParams()
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	nandCell := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	// x → inv → inv → m ; y direct; z = nand(m, y).
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
	res, err := CircuitDelay(c, prm)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"i1", "i2", "g"}
	if len(res.Critical) != len(want) {
		t.Fatalf("critical path = %v", res.Critical)
	}
	for i := range want {
		if res.Critical[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", res.Critical, want)
		}
	}
}

func TestDelayParamsValidate(t *testing.T) {
	bad := []Params{
		{Rn: 0, Rp: 1, Cap: core.DefaultParams()},
		{Rn: 1, Rp: -1, Cap: core.DefaultParams()},
		{Rn: 1, Rp: 1, Cap: core.Params{}},
		{Rn: math.NaN(), Rp: 1, Cap: core.DefaultParams()},
		{Rn: 1, Rp: math.NaN(), Cap: core.DefaultParams()},
		{Rn: math.Inf(1), Rp: 1, Cap: core.DefaultParams()},
		{Rn: 1, Rp: 1, Cap: core.Params{Vdd: 3.3, Cj: math.NaN()}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestPinDelaysErrors(t *testing.T) {
	g := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	for _, load := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := PinDelays(g, load, DefaultParams()); err == nil {
			t.Errorf("load %v accepted", load)
		}
		if _, err := Arrival(g, []float64{0}, load, DefaultParams()); err == nil {
			t.Errorf("Arrival accepted load %v", load)
		}
	}
	if _, err := PinDelays(g, 0, Params{}); err == nil {
		t.Error("zero params accepted")
	}
}

func TestDelayOptimalErrors(t *testing.T) {
	g := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	if _, _, err := DelayOptimal(g, []float64{0}, 0, DefaultParams()); err == nil {
		t.Error("wrong arrival count accepted")
	}
}

func TestComplexGateDelaysAllPositive(t *testing.T) {
	prm := DefaultParams()
	gates := []*gate.Gate{
		gate.MustNew("oai21", []string{"a1", "a2", "b"}, sp.MustParse("s(p(a1,a2),b)")),
		gate.MustNew("aoi221", []string{"a1", "a2", "b1", "b2", "c"}, sp.MustParse("p(s(a1,a2),s(b1,b2),c)")),
		gate.MustNew("aoi222", []string{"a1", "a2", "b1", "b2", "c1", "c2"}, sp.MustParse("p(s(a1,a2),s(b1,b2),s(c1,c2))")),
	}
	for _, g := range gates {
		for _, cfg := range g.AllConfigs() {
			d, err := PinDelays(cfg, 1e-15, prm)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, cfg.ConfigKey(), err)
			}
			for i, v := range d {
				if v <= 0 {
					t.Errorf("%s pin %d delay %g not positive", g.Name, i, v)
				}
			}
		}
	}
}

func BenchmarkCircuitDelayChain32(b *testing.B) {
	prm := DefaultParams()
	invCell := gate.MustNew("inv", []string{"a"}, sp.MustParse("a"))
	c := &circuit.Circuit{Name: "chain", Inputs: []string{nameOf("w", 0)}, Outputs: []string{nameOf("w", 32)}}
	for i := 0; i < 32; i++ {
		c.Gates = append(c.Gates, &circuit.Instance{
			Name: nameOf("g", i), Cell: invCell,
			Pins: []string{nameOf("w", i)}, Out: nameOf("w", i+1),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CircuitDelay(c, prm); err != nil {
			b.Fatal(err)
		}
	}
}

func nameOf(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestArrivalIsLatestPin pins the arrival rule: the latest over pins of
// (pin arrival + pin delay), checked by hand on a NAND3 with skewed
// arrivals, and a pin-count mismatch is an error.
func TestArrivalIsLatestPin(t *testing.T) {
	prm := DefaultParams()
	g := gate.MustNew("nand3", []string{"a", "b", "c"}, sp.MustParse("s(a,b,c)"))
	load := prm.Cap.OutputLoad(2)
	d, err := PinDelays(g, load, prm)
	if err != nil {
		t.Fatal(err)
	}
	arr := []float64{3e-10, 0, 1e-10}
	want := math.Inf(-1)
	for i := range arr {
		want = math.Max(want, arr[i]+d[i])
	}
	got, err := Arrival(g, arr, load, prm)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Arrival = %g, want %g", got, want)
	}
	if _, err := Arrival(g, arr[:2], load, prm); err == nil {
		t.Error("Arrival accepted two arrivals for three pins")
	}
}

// TestArrivalRejectsNonFinite: a NaN fails every comparison, so a NaN
// pin arrival used to drop out of the latest-arrival max (all-NaN
// arrivals gave −Inf and no error). Non-finite arrivals are rejected, by
// Arrival and by DelayOptimal, which picks through it.
func TestArrivalRejectsNonFinite(t *testing.T) {
	prm := DefaultParams()
	g := gate.MustNew("nand2", []string{"a", "b"}, sp.MustParse("s(a,b)"))
	nan, inf := math.NaN(), math.Inf(1)
	for _, arr := range [][]float64{{nan, nan}, {0, nan}, {nan, 1e-10}, {inf, 0}, {0, -inf}} {
		if a, err := Arrival(g, arr, 0, prm); err == nil {
			t.Errorf("Arrival(%v) = %v, want an error", arr, a)
		}
		if cfg, a, err := DelayOptimal(g, arr, 0, prm); err == nil {
			t.Errorf("DelayOptimal(%v) = %v, %v, want an error", arr, cfg, a)
		}
	}
	if _, err := latest([]float64{nan}, []float64{1e-10}); err == nil {
		t.Error("latest accepted a NaN arrival")
	}
}

// oracleStackDelay is the naive reference for the path templates: it
// re-enumerates, by DFS, every simple path from Y to the rail through the
// network of the given transistor type that uses the pin's transistor and
// takes the largest Elmore sum, computing each node's capacitance and
// resistance to the rail as it goes.
func oracleStackDelay(gr *gate.Graph, pin string, tt gate.TransType, rail gate.NodeID, prm Params, loadCap float64) (float64, error) {
	r := prm.Rn
	if tt == gate.PMOS {
		r = prm.Rp
	}
	nodeCap := func(n gate.NodeID) float64 {
		c := prm.Cap.Cj * float64(gr.Degree(n))
		if n == gate.Y {
			c += loadCap
		}
		return c
	}
	best := -1.0
	visited := make([]bool, gr.NumNodes)
	// path is the list of nodes from Y downward; edges[i] connects
	// path[i] to path[i+1].
	var dfs func(cur gate.NodeID, nodes []gate.NodeID, usedPin bool)
	dfs = func(cur gate.NodeID, nodes []gate.NodeID, usedPin bool) {
		if cur == rail {
			if !usedPin {
				return
			}
			// Elmore sum along the recorded path: resistance from node k
			// to the rail is r × (#edges below k).
			total := 0.0
			k := len(nodes) // number of non-rail nodes on the path
			for i, n := range nodes {
				if n == gate.NodeID(-1) {
					// Marker: nodes below the switching transistor are
					// pre-discharged; stop accumulating.
					break
				}
				rBelow := float64(k-i) * r
				total += nodeCap(n) * rBelow
			}
			if total > best {
				best = total
			}
			return
		}
		visited[cur] = true
		for _, e := range gr.Edges {
			if e.Type != tt {
				continue
			}
			var next gate.NodeID
			switch {
			case e.A == cur:
				next = e.B
			case e.B == cur:
				next = e.A
			default:
				continue
			}
			if next != rail && (next == gate.Vdd || next == gate.Vss) {
				continue
			}
			if next != rail && visited[next] {
				continue
			}
			isPin := e.Input == pin
			childNodes := nodes
			if next != rail {
				marker := next
				if usedPin || isPin {
					marker = gate.NodeID(-1)
				}
				childNodes = append(append([]gate.NodeID(nil), nodes...), marker)
			}
			dfs(next, childNodes, usedPin || isPin)
		}
		visited[cur] = false
	}
	dfs(gate.Y, []gate.NodeID{gate.Y}, false)
	if best < 0 {
		return 0, fmt.Errorf("delay: pin %s has no %v path from output to rail", pin, tt)
	}
	return best, nil
}

// oraclePinDelays is PinDelays computed by oracleStackDelay.
func oraclePinDelays(g *gate.Gate, loadCap float64, prm Params) ([]float64, error) {
	gr, err := g.Graph()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(g.Inputs))
	for i, pin := range g.Inputs {
		fall, err := oracleStackDelay(gr, pin, gate.NMOS, gate.Vss, prm, loadCap)
		if err != nil {
			return nil, err
		}
		rise, err := oracleStackDelay(gr, pin, gate.PMOS, gate.Vdd, prm, loadCap)
		if err != nil {
			return nil, err
		}
		out[i] = math.Max(fall, rise)
	}
	return out, nil
}

// TestPinDelaysMatchOracle pins the memoized path templates to the naive
// DFS bit for bit: every configuration of every library cell, at no load
// and at the loads of one and eight fanouts, and Arrival to the latest of
// the oracle's pin delays.
func TestPinDelaysMatchOracle(t *testing.T) {
	prm := DefaultParams()
	for _, cell := range library.Default().Cells() {
		for _, cfg := range cell.Proto.AllConfigs() {
			arr := make([]float64, len(cfg.Inputs))
			for i := range arr {
				arr[i] = float64((i*7)%5) * 1e-10
			}
			for _, load := range []float64{0, prm.Cap.OutputLoad(1), prm.Cap.OutputLoad(8)} {
				want, err := oraclePinDelays(cfg, load, prm)
				if err != nil {
					t.Fatalf("%s %s: oracle: %v", cell.Name, cfg.ConfigKey(), err)
				}
				got, err := PinDelays(cfg, load, prm)
				if err != nil {
					t.Fatalf("%s %s: %v", cell.Name, cfg.ConfigKey(), err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s %s load %g pin %s: PinDelays %v, oracle %v",
							cell.Name, cfg.ConfigKey(), load, cfg.Inputs[i], got[i], want[i])
					}
				}
				a, err := Arrival(cfg, arr, load, prm)
				if err != nil {
					t.Fatal(err)
				}
				w, err := latest(arr, want)
				if err != nil {
					t.Fatal(err)
				}
				if a != w {
					t.Errorf("%s %s load %g: Arrival %v, oracle %v", cell.Name, cfg.ConfigKey(), load, a, w)
				}
			}
		}
	}
}

// TestArrivalZeroAllocs guards the delay-aware optimizer's inner loop: a
// warm Arrival evaluates the memoized template straight into the max and
// allocates nothing.
func TestArrivalZeroAllocs(t *testing.T) {
	prm := DefaultParams()
	cfgs := library.Default().MustCell("aoi222").Proto.AllConfigs()
	arr := []float64{1e-10, 0, 3e-10, 2e-10, 0, 1e-10}
	load := prm.Cap.OutputLoad(3)
	run := func() {
		for _, cfg := range cfgs {
			if _, err := Arrival(cfg, arr, load, prm); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm Arrival over %d configurations: %v allocations per run, want 0", len(cfgs), allocs)
	}
}

// TestPathTemplatesConcurrent builds the templates of a cold orbit from
// several goroutines at once (run it under -race): every caller must see
// the oracle's delays, whichever goroutine's template was stored.
func TestPathTemplatesConcurrent(t *testing.T) {
	prm := DefaultParams()
	cfgs := gate.MustNew("delay_concurrent_aoi221", []string{"a1", "a2", "b1", "b2", "c"},
		sp.MustParse("p(s(a1,a2),s(b1,b2),c)")).AllConfigs()
	load := prm.Cap.OutputLoad(2)
	want := make([][]float64, len(cfgs))
	for k, cfg := range cfgs {
		d, err := oraclePinDelays(cfg, load, prm)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = d
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, cfg := range cfgs {
				got, err := PinDelays(cfg, load, prm)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != want[k][i] {
						t.Errorf("%s pin %d: %v, oracle %v", cfg.ConfigKey(), i, got[i], want[k][i])
					}
				}
			}
		}()
	}
	wg.Wait()
}
