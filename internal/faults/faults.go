// Package faults is the deterministic fault-injection harness behind the
// durability tests: a seeded Plan decides, at named injection sites,
// whether to panic, return an error, stall, or tear a write mid-frame.
//
// The property that makes chaos testing conclusive rather than merely
// suggestive is that every decision is a pure function of
// (plan seed, site, key, attempt) — never of wall-clock time, goroutine
// scheduling, or a shared mutable counter. Two runs of the same workload
// under the same plan inject exactly the same fault at exactly the same
// logical point no matter how many workers race, so a test can assert
// that the *result set* of a faulted run equals the clean run's (for
// survivors) plus a deterministic failure-record set — not just that
// "something failed somewhere".
//
// Sites are free-form strings naming the code location ("sweep/job",
// "store/put", "serve/sweep-stream"); keys identify the logical unit of
// work at that site (a job's content hash, a store record key, a stream
// line number); attempt distinguishes retries of the same unit so a
// fault can be transient — failing attempt 1 and sparing attempt 2 —
// which is what exercises retry/backoff paths.
//
// A nil *Plan is the production configuration: every method on it is a
// no-op, so callers thread a Plan through unconditionally and never
// branch on "chaos enabled".
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// None injects nothing.
	None Kind = iota
	// Error makes the site return an *InjectedError (retryable).
	Error
	// Panic makes the site panic with an *InjectedPanic value; recovery
	// code converts it back to a retryable error via PanicError.
	Panic
	// Delay stalls the site for a seeded duration up to the plan's
	// MaxDelay — it perturbs scheduling without changing results, which
	// is exactly what determinism tests need to be worth anything.
	Delay
	// TornWrite applies only to journaling writers (internal/store): the
	// frame is written partially, simulating a crash mid-write, then the
	// writer recovers as reopening the journal would.
	TornWrite
)

// String names the kind as used in Parse specs.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case TornWrite:
		return "torn"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// kinds is the fixed precedence order decisions walk; it is part of the
// deterministic contract (reordering it would change every plan).
var kinds = [...]Kind{Panic, Error, TornWrite, Delay}

// Plan is an immutable, seeded fault schedule. The zero rate for every
// kind (or a nil plan) injects nothing.
type Plan struct {
	seed     int64
	rates    [TornWrite + 1]float64
	maxDelay time.Duration
}

// DefaultMaxDelay bounds injected stalls when a plan does not set one.
const DefaultMaxDelay = 2 * time.Millisecond

// New builds a plan injecting each kind with the given probability per
// decision point. Rates must be in [0,1] and sum to at most 1 (each
// decision draws once and picks at most one fault). maxDelay bounds
// Delay stalls (0: DefaultMaxDelay).
func New(seed int64, rates map[Kind]float64, maxDelay time.Duration) (*Plan, error) {
	p := &Plan{seed: seed, maxDelay: maxDelay}
	if p.maxDelay <= 0 {
		p.maxDelay = DefaultMaxDelay
	}
	for k, r := range rates {
		if k <= None || k > TornWrite {
			return nil, fmt.Errorf("faults: unknown kind %v", k)
		}
		if !(r >= 0 && r <= 1) {
			return nil, fmt.Errorf("faults: rate %g for %v outside [0,1]", r, k)
		}
		p.rates[k] = r
	}
	// Sum in kind order, not map order, so the same rates are always
	// judged the same.
	sum := 0.0
	for _, r := range p.rates {
		sum += r
	}
	if sum > 1+1e-12 {
		return nil, fmt.Errorf("faults: rates sum to %g > 1", sum)
	}
	return p, nil
}

// Parse builds a plan from a flag-friendly spec: a comma-separated list
// of kind=rate pairs plus an optional maxdelay=<duration>, e.g.
//
//	"error=0.2,panic=0.1,delay=0.1,torn=0.05,maxdelay=2ms"
//
// An empty spec yields a nil plan (injection off).
func Parse(spec string, seed int64) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	rates := map[Kind]float64{}
	var maxDelay time.Duration
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad spec field %q (want kind=rate)", field)
		}
		name = strings.TrimSpace(name)
		val = strings.TrimSpace(val)
		if name == "maxdelay" {
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faults: bad maxdelay %q", val)
			}
			maxDelay = d
			continue
		}
		var k Kind
		switch name {
		case "error":
			k = Error
		case "panic":
			k = Panic
		case "delay":
			k = Delay
		case "torn":
			k = TornWrite
		default:
			return nil, fmt.Errorf("faults: unknown kind %q (want error, panic, delay, torn or maxdelay)", name)
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad rate %q for %s: %v", val, name, err)
		}
		rates[k] = r
	}
	return New(seed, rates, maxDelay)
}

// Spec renders the plan back into Parse's format, kinds in a fixed
// order, for logging.
func (p *Plan) Spec() string {
	if p == nil {
		return ""
	}
	var fields []string
	for k := Error; k <= TornWrite; k++ {
		if p.rates[k] > 0 {
			fields = append(fields, fmt.Sprintf("%s=%g", k, p.rates[k]))
		}
	}
	sort.Strings(fields)
	fields = append(fields, fmt.Sprintf("maxdelay=%s", p.maxDelay))
	return strings.Join(fields, ",")
}

// draw maps a decision point to a uniform in [0,1). n distinguishes
// multiple draws at one point (fault selection vs. tear offset vs. delay
// length).
func (p *Plan) draw(site, key string, attempt, n int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d", p.seed, site, key, attempt, n)
	// FNV's high bits avalanche poorly for inputs differing only in a
	// trailing counter; a splitmix64 finalizer decorrelates them.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// Decide returns the fault, if any, scheduled for this decision point.
// It is side-effect free; sites that need special handling (the store's
// torn writes) branch on it directly, everything else calls Inject.
func (p *Plan) Decide(site, key string, attempt int) Kind {
	if p == nil {
		return None
	}
	u := p.draw(site, key, attempt, 0)
	for _, k := range kinds {
		if r := p.rates[k]; u < r {
			return k
		} else {
			u -= r
		}
	}
	return None
}

// DelayFor returns the seeded stall length for a Delay decision, in
// (0, MaxDelay].
func (p *Plan) DelayFor(site, key string, attempt int) time.Duration {
	if p == nil {
		return 0
	}
	u := p.draw(site, key, attempt, 1)
	d := time.Duration(u * float64(p.maxDelay))
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// TearAt returns the seeded cut point for a TornWrite decision: how many
// of frameLen bytes reach the journal before the simulated crash, in
// [1, frameLen-1] (frameLen < 2 tears to zero bytes).
func (p *Plan) TearAt(site, key string, attempt, frameLen int) int {
	if p == nil || frameLen < 2 {
		return 0
	}
	u := p.draw(site, key, attempt, 2)
	return 1 + int(u*float64(frameLen-1))%(frameLen-1)
}

// Inject executes the scheduled fault for this decision point: returns
// an *InjectedError, panics with an *InjectedPanic, sleeps the seeded
// delay, or does nothing. TornWrite decisions are a no-op here — only
// journaling writers can honor them, and they do so via Decide.
func (p *Plan) Inject(site, key string, attempt int) error {
	switch p.Decide(site, key, attempt) {
	case Error:
		return &InjectedError{Site: site, Key: key, Attempt: attempt}
	case Panic:
		panic(&InjectedPanic{Site: site, Key: key, Attempt: attempt})
	case Delay:
		time.Sleep(p.DelayFor(site, key, attempt))
	}
	return nil
}

// InjectedError is a seeded, injected failure. It is retryable: the
// whole point of injecting it is to drive retry paths, and a retry
// re-draws with attempt+1.
type InjectedError struct {
	Site    string
	Key     string
	Attempt int
	// FromPanic records that the error was recovered from an injected
	// panic rather than returned directly.
	FromPanic bool
}

func (e *InjectedError) Error() string {
	via := ""
	if e.FromPanic {
		via = " (recovered panic)"
	}
	return fmt.Sprintf("faults: injected error at %s key=%s attempt=%d%s", e.Site, e.Key, e.Attempt, via)
}

// Retryable marks injected errors as transient.
func (e *InjectedError) Retryable() bool { return true }

// InjectedPanic is the value injected panics carry, so recovery code can
// tell a scheduled panic from a real bug.
type InjectedPanic struct {
	Site    string
	Key     string
	Attempt int
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s key=%s attempt=%d", p.Site, p.Key, p.Attempt)
}

// PanicError converts a recovered panic value into an error: injected
// panics become retryable *InjectedErrors; anything else — a real bug
// surfacing under the recover that fault-tolerant workers must install —
// becomes a plain, non-retryable error carrying the value.
func PanicError(v any) error {
	if ip, ok := v.(*InjectedPanic); ok {
		return &InjectedError{Site: ip.Site, Key: ip.Key, Attempt: ip.Attempt, FromPanic: true}
	}
	return fmt.Errorf("panic: %v", v)
}

// IsInjected reports whether err originates from a Plan (directly or
// recovered from an injected panic).
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// Retryable reports whether err is marked transient — it implements
// Retryable() bool and says yes. Injected errors are; business errors
// (unknown benchmark, bad netlist) are not.
func Retryable(err error) bool {
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// Backoff returns the wait before retry number attempt (0 for the first
// retry) of the operation named by key: base·2^min(attempt, 6), scaled by
// a jitter factor in [0.5, 1.5) hashed from key and attempt — the same
// schedule on every run, decorrelated across keys so retry storms spread
// out.
func Backoff(base time.Duration, key string, attempt int) time.Duration {
	shift := min(max(attempt, 0), 6)
	h := fnv.New64a()
	fmt.Fprintf(h, "backoff|%s|%d", key, attempt)
	jitter := 0.5 + float64(h.Sum64()>>11)/float64(uint64(1)<<53)
	return time.Duration(float64(base<<shift) * jitter)
}
