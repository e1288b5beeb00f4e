package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strings"

	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/httpapi"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/internal/stoch"
	"repro/internal/sweep"
)

// circuitRequest is the part of every request that names a circuit and
// its input statistics. Exactly one of Benchmark or GNL selects the
// circuit; Scenario (default "A") or an explicit uniform (P, D) pair
// selects the statistics; Seed makes the scenario draw (and any
// simulation stimulus) a pure function of the request.
type circuitRequest struct {
	Benchmark string   `json:"benchmark,omitempty"`
	GNL       string   `json:"gnl,omitempty"`
	Scenario  string   `json:"scenario,omitempty"`
	P         *float64 `json:"p,omitempty"`
	D         *float64 `json:"d,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
}

// normalize validates the circuit selection and canonicalizes the fields
// that feed the response-cache key, so requests meaning the same thing
// hash the same.
func (cr *circuitRequest) normalize() error {
	switch {
	case cr.Benchmark == "" && cr.GNL == "":
		return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "one of \"benchmark\" or \"gnl\" is required")
	case cr.Benchmark != "" && cr.GNL != "":
		return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "\"benchmark\" and \"gnl\" are mutually exclusive")
	}
	if cr.Benchmark != "" {
		if !knownBenchmark(cr.Benchmark) {
			return httpapi.Errorf(http.StatusNotFound, "unknown_benchmark",
				"benchmark %q is neither an embedded classic nor a Table 3 name", cr.Benchmark)
		}
	}
	if (cr.P == nil) != (cr.D == nil) {
		return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "\"p\" and \"d\" must be given together")
	}
	if cr.P != nil {
		if *cr.P < 0 || *cr.P > 1 {
			return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "probability p=%v outside [0,1]", *cr.P)
		}
		if *cr.D < 0 {
			return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "density d=%v must be non-negative", *cr.D)
		}
		if cr.Scenario != "" {
			return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "\"scenario\" and explicit (p, d) are mutually exclusive")
		}
		return nil
	}
	if cr.Scenario == "" {
		cr.Scenario = "A" // the cache key spells the default out
	}
	sc, err := sweep.ParseScenario(cr.Scenario)
	if err != nil {
		return httpapi.Errorf(http.StatusBadRequest, "invalid_request", "%v", err)
	}
	cr.Scenario = sc.String()
	return nil
}

// knownBenchmark reports whether mcnc.Load can resolve the name.
func knownBenchmark(name string) bool {
	if _, ok := mcnc.EmbeddedSource(name); ok {
		return true
	}
	_, ok := mcnc.Find(name)
	return ok
}

// loadBenchmarkCircuit is the cache fill for benchmark-named circuits.
func loadBenchmarkCircuit(name string, lib *library.Library) (*circuit.Circuit, error) {
	c, err := mcnc.Load(name, lib)
	if err != nil {
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown_benchmark", "%v", err)
	}
	return c, nil
}

// circuitKey is the content-hash cache key of the request's circuit:
// benchmarks by name (they are immutable within a build), GNL bodies by
// SHA-256 of the text — byte-identical netlists parse and map once
// regardless of who sends them.
func (cr *circuitRequest) circuitKey() string {
	if cr.Benchmark != "" {
		return "bench:" + cr.Benchmark // == sweep.CircuitKey
	}
	sum := sha256.Sum256([]byte(cr.GNL))
	return "gnl:" + hex.EncodeToString(sum[:])
}

// resolve returns the request's parsed + mapped circuit through the
// shared cache.
func (s *Server) resolve(cr *circuitRequest) (*circuit.Circuit, error) {
	if cr.Benchmark != "" {
		return s.loadBenchmark(cr.Benchmark)
	}
	return s.circuits.Get(cr.circuitKey(), func() (*circuit.Circuit, error) {
		c, err := netlist.ReadGNL(strings.NewReader(cr.GNL), s.cfg.Lib)
		if err != nil {
			return nil, httpapi.Errorf(http.StatusBadRequest, "invalid_gnl", "%v", err)
		}
		return c, nil
	})
}

// inputStats realizes the request's input statistics on the circuit:
// uniform (P, D) when given explicitly, otherwise the scenario draw
// seeded by the request seed.
func (cr *circuitRequest) inputStats(c *circuit.Circuit) map[string]stoch.Signal {
	stats := make(map[string]stoch.Signal, len(c.Inputs))
	if cr.P != nil {
		for _, in := range c.Inputs {
			stats[in] = stoch.Signal{P: *cr.P, D: *cr.D}
		}
		return stats
	}
	eo := expt.DefaultOptions()
	eo.Seed = cr.Seed
	sc := expt.ScenarioA
	if cr.Scenario == "B" {
		sc = expt.ScenarioB
	}
	return expt.InputStats(c, sc, eo)
}
