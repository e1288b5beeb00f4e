package dist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/expt"
	"repro/internal/library"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Protocol endpoints. All bodies are JSON; errors use internal/httpapi's
// structured envelope, as servd's do.
const (
	PathConfig    = "/dist/v1/config"    // GET: the sweep definition workers must compute under
	PathLease     = "/dist/v1/lease"     // POST: claim a bounded job range under a TTL lease
	PathHeartbeat = "/dist/v1/heartbeat" // POST: renew a lease
	PathUpload    = "/dist/v1/upload"    // POST: deliver a lease's results for idempotent merge
	PathStatus    = "/dist/v1/status"    // GET: sweep progress
)

// SweepConfig is the wire form of the sweep definition: everything a
// worker needs to compute jobs byte-identically to the coordinator's
// own enumeration. The coordinator is the single source of truth —
// workers carry no job-defining flags, so a fleet can never disagree
// about what a job means. Job content keys (sweep.Job.StoreKey) are
// computed only on the coordinator and shipped inside each lease.
type SweepConfig struct {
	Benchmarks       []string   `json:"benchmarks"`
	Scenarios        []string   `json:"scenarios"`
	Modes            []string   `json:"modes"`
	Seeds            []int64    `json:"seeds"`
	Simulate         bool       `json:"simulate"`
	OptimizerWorkers int        `json:"optimizer_workers,omitempty"`
	Expt             ExptConfig `json:"expt"`
}

// ExptConfig mirrors expt.Options minus the fields that cannot or must
// not travel: the library pointer (distributed sweeps run on the
// default library on every node) and the row-level worker count (local
// policy).
type ExptConfig struct {
	Params     core.Params  `json:"params"`
	Delay      delay.Params `json:"delay"`
	Sim        sim.Params   `json:"sim"`
	HorizonA   float64      `json:"horizon_a"`
	CyclesB    int          `json:"cycles_b"`
	PeriodB    float64      `json:"period_b"`
	MaxDensA   float64      `json:"max_dens_a"`
	Seed       int64        `json:"seed"`
	SimVectors int          `json:"sim_vectors"`
	SimLanes   int          `json:"sim_lanes,omitempty"`
}

// ConfigFromOptions renders normalized sweep options into wire form.
// The options must already have explicit benchmark/scenario/mode/seed
// lists (NewCoordinator normalizes before calling this).
func ConfigFromOptions(o sweep.Options) SweepConfig {
	c := SweepConfig{
		Benchmarks:       o.Benchmarks,
		Seeds:            o.Seeds,
		Simulate:         o.Simulate,
		OptimizerWorkers: o.OptimizerWorkers,
		Expt: ExptConfig{
			Params:     o.Expt.Params,
			Delay:      o.Expt.Delay,
			Sim:        o.Expt.Sim,
			HorizonA:   o.Expt.HorizonA,
			CyclesB:    o.Expt.CyclesB,
			PeriodB:    o.Expt.PeriodB,
			MaxDensA:   o.Expt.MaxDensA,
			Seed:       o.Expt.Seed,
			SimVectors: o.Expt.SimVectors,
			SimLanes:   o.Expt.SimLanes,
		},
	}
	for _, sc := range o.Scenarios {
		c.Scenarios = append(c.Scenarios, sc.String())
	}
	for _, m := range o.Modes {
		c.Modes = append(c.Modes, m.String())
	}
	return c
}

// Options reconstructs sweep options from the wire form. The returned
// options are compute-complete (library defaulted) but carry no
// stream/store/fault wiring — the worker attaches its own.
func (c SweepConfig) Options() (sweep.Options, error) {
	o := sweep.Options{
		Benchmarks:       c.Benchmarks,
		Seeds:            c.Seeds,
		Simulate:         c.Simulate,
		OptimizerWorkers: c.OptimizerWorkers,
		Expt: expt.Options{
			Params:     c.Expt.Params,
			Delay:      c.Expt.Delay,
			Sim:        c.Expt.Sim,
			HorizonA:   c.Expt.HorizonA,
			CyclesB:    c.Expt.CyclesB,
			PeriodB:    c.Expt.PeriodB,
			MaxDensA:   c.Expt.MaxDensA,
			Seed:       c.Expt.Seed,
			SimVectors: c.Expt.SimVectors,
			SimLanes:   c.Expt.SimLanes,
			Lib:        library.Default(),
		},
	}
	for _, sc := range c.Scenarios {
		parsed, err := sweep.ParseScenario(sc)
		if err != nil {
			return o, fmt.Errorf("dist: config: %w", err)
		}
		o.Scenarios = append(o.Scenarios, parsed)
	}
	for _, m := range c.Modes {
		parsed, err := sweep.ParseMode(m)
		if err != nil {
			return o, fmt.Errorf("dist: config: %w", err)
		}
		o.Modes = append(o.Modes, parsed)
	}
	return o, nil
}

// JobSpec is one leased job on the wire: the sweep coordinates plus the
// coordinator-computed content key the result must be stored under.
type JobSpec struct {
	Index     int    `json:"index"`
	Benchmark string `json:"benchmark"`
	Scenario  string `json:"scenario"`
	Mode      string `json:"mode"`
	Seed      int64  `json:"seed"`
	Key       string `json:"key"`
}

// Job converts the spec back into a sweep job.
func (s JobSpec) Job() (sweep.Job, error) {
	sc, err := sweep.ParseScenario(s.Scenario)
	if err != nil {
		return sweep.Job{}, err
	}
	m, err := sweep.ParseMode(s.Mode)
	if err != nil {
		return sweep.Job{}, err
	}
	return sweep.Job{Index: s.Index, Benchmark: s.Benchmark, Scenario: sc, Mode: m, Seed: s.Seed}, nil
}

// LeaseRequest asks for a job range. Reconnected marks the first lease
// request after the worker survived a coordinator outage (it
// revalidated the config hash and reattached); the coordinator counts
// these on /metrics.
type LeaseRequest struct {
	Worker      string `json:"worker"`
	Reconnected bool   `json:"reconnected,omitempty"`
}

// LeaseResponse grants a lease, reports completion, or asks the worker
// to poll again (all jobs are leased out but the sweep is not done).
type LeaseResponse struct {
	Done    bool      `json:"done,omitempty"`
	LeaseID string    `json:"lease_id,omitempty"`
	TTLMs   int64     `json:"ttl_ms,omitempty"`
	Jobs    []JobSpec `json:"jobs,omitempty"`
	RetryMs int64     `json:"retry_ms,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse acknowledges a renewal.
type HeartbeatResponse struct {
	TTLMs int64 `json:"ttl_ms"`
}

// UploadRecord is one finished job in an upload: the content key, the
// serialized sweep.Result, and whether the job ultimately failed
// (failed results are accounted but never journaled, matching the
// single-process sweep).
type UploadRecord struct {
	Key    string `json:"key"`
	Failed bool   `json:"failed,omitempty"`
	Result []byte `json:"result"`
}

// UploadRequest delivers a lease's results. Attempt numbers re-sends of
// the same upload (the worker increments on retry) so coordinator-side
// fault decisions are transient per attempt, exactly like every other
// fault site.
type UploadRequest struct {
	Worker  string         `json:"worker"`
	LeaseID string         `json:"lease_id"`
	Attempt int            `json:"attempt"`
	Results []UploadRecord `json:"results"`
}

// UploadResponse reports what the merge did with the delivered records.
type UploadResponse struct {
	Merged  int `json:"merged"`  // appended to the journal (first delivery)
	Deduped int `json:"deduped"` // already journaled (duplicate execution absorbed)
	Failed  int `json:"failed"`  // failure records accounted
	Unknown int `json:"unknown"` // keys not in this sweep (ignored)
}

// StatusResponse is the coordinator's progress snapshot.
type StatusResponse struct {
	Total       int `json:"total"`
	Done        int `json:"done"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Failed      int `json:"failed"`
	Quarantined int `json:"quarantined"` // poison jobs excluded from the sweep
	Workers     int `json:"workers"`     // live leases

	Complete bool `json:"complete"`
}

// DefaultLeaseTTL bounds how long a dead worker can sit on a job range
// before it is reassigned.
const DefaultLeaseTTL = 10 * time.Second

// DefaultChunkSize is the number of jobs per lease: small enough that a
// straggler or death loses little work, large enough to amortize the
// RPC round-trip.
const DefaultChunkSize = 8

// DefaultRetryMs is how long a worker waits before re-polling when all
// remaining jobs are leased to someone else.
const DefaultRetryMs = 250

// DefaultQuarantineAfter is the poison-job threshold: a job whose
// leases fail this many times across at least two distinct workers
// (or twice this many times total) is quarantined.
const DefaultQuarantineAfter = 3

// DefaultSpeculateFactor triggers straggler re-execution once a
// still-renewing lease has outlived this multiple of the p95
// completed-lease duration (never less than one TTL).
const DefaultSpeculateFactor = 4.0

// DefaultSpeculateMinLeases is how many leases must complete before the
// p95 is trusted for straggler detection.
const DefaultSpeculateMinLeases = 3

// DefaultReconnectTimeout bounds how long a worker keeps trying to
// reattach to an unreachable coordinator before concluding it is gone
// for good and exiting cleanly.
const DefaultReconnectTimeout = 60 * time.Second

// maxReconnectBackoff caps the exponential backoff between reconnect
// probes.
const maxReconnectBackoff = 5 * time.Second
