package faults

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// TestDecideDeterministic: the same (seed, site, key, attempt) always
// yields the same kind, and decisions do not depend on call order.
func TestDecideDeterministic(t *testing.T) {
	p, err := New(7, map[Kind]float64{Error: 0.3, Panic: 0.2, Delay: 0.2, TornWrite: 0.1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]Kind, 0, 300)
	for i := 0; i < 100; i++ {
		for a := 1; a <= 3; a++ {
			forward = append(forward, p.Decide("site", fmt.Sprint(i), a))
		}
	}
	idx := 0
	for i := 0; i < 100; i++ {
		for a := 1; a <= 3; a++ {
			if got := p.Decide("site", fmt.Sprint(i), a); got != forward[idx] {
				t.Fatalf("replayed decision (%d,%d) = %v, first pass said %v", i, a, got, forward[idx])
			}
			idx++
		}
	}
}

// TestDecideRates: empirical frequencies over many keys approximate the
// configured rates (the draw is a hash, so this is a sanity check that
// rate intervals are wired to the right kinds).
func TestDecideRates(t *testing.T) {
	p, err := New(42, map[Kind]float64{Error: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		switch p.Decide("s", fmt.Sprint(i), 1) {
		case Error:
			hits++
		case None:
		default:
			t.Fatalf("kind with zero rate injected")
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.5) > 0.05 {
		t.Fatalf("error rate %.3f, want ~0.5", f)
	}
}

// TestDecideDistinctPointsDiffer: different sites, keys and attempts
// draw independently (a transient fault at attempt 1 can spare
// attempt 2 — the property retry tests rely on).
func TestDecideDistinctPointsDiffer(t *testing.T) {
	p, err := New(1, map[Kind]float64{Error: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawRecovery := false
	for i := 0; i < 200 && !sawRecovery; i++ {
		k := fmt.Sprint(i)
		if p.Decide("s", k, 1) == Error && p.Decide("s", k, 2) == None {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Fatal("no key failed attempt 1 and passed attempt 2 in 200 keys at rate 0.5")
	}
}

// TestNilPlanNoOps: the production configuration injects nothing.
func TestNilPlanNoOps(t *testing.T) {
	var p *Plan
	if k := p.Decide("s", "k", 1); k != None {
		t.Fatalf("nil plan decided %v", k)
	}
	if err := p.Inject("s", "k", 1); err != nil {
		t.Fatalf("nil plan injected %v", err)
	}
	if d := p.DelayFor("s", "k", 1); d != 0 {
		t.Fatalf("nil plan delayed %v", d)
	}
	if c := p.TearAt("s", "k", 1, 100); c != 0 {
		t.Fatalf("nil plan tore at %d", c)
	}
	if s := p.Spec(); s != "" {
		t.Fatalf("nil plan spec %q", s)
	}
}

// TestInjectKinds: each decided kind has its contracted effect.
func TestInjectKinds(t *testing.T) {
	// Rate 1.0 for a single kind makes every decision that kind.
	mustPlan := func(k Kind) *Plan {
		p, err := New(3, map[Kind]float64{k: 1}, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := mustPlan(Error).Inject("s", "k", 1); !IsInjected(err) || !Retryable(err) {
		t.Fatalf("error plan injected %v, want retryable InjectedError", err)
	}

	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("panic plan did not panic")
			}
			err := PanicError(v)
			if !IsInjected(err) || !Retryable(err) {
				t.Fatalf("recovered injected panic to %v, want retryable InjectedError", err)
			}
			var ie *InjectedError
			if !errors.As(err, &ie) || !ie.FromPanic {
				t.Fatalf("recovered error %v does not record FromPanic", err)
			}
		}()
		mustPlan(Panic).Inject("s", "k", 1)
	}()

	if err := mustPlan(Delay).Inject("s", "k", 1); err != nil {
		t.Fatalf("delay plan returned %v", err)
	}

	// TornWrite is a no-op under Inject (only journaling writers honor
	// it, via Decide + TearAt).
	p := mustPlan(TornWrite)
	if err := p.Inject("s", "k", 1); err != nil {
		t.Fatalf("torn plan returned %v from Inject", err)
	}
	for _, n := range []int{2, 3, 17, 4096} {
		cut := p.TearAt("s", "k", 1, n)
		if cut < 1 || cut >= n {
			t.Fatalf("TearAt(%d) = %d outside [1,%d)", n, cut, n)
		}
	}
	if cut := p.TearAt("s", "k", 1, 1); cut != 0 {
		t.Fatalf("TearAt(1) = %d, want 0", cut)
	}
}

// TestPanicErrorRealPanic: a non-injected panic value converts to a
// non-retryable error.
func TestPanicErrorRealPanic(t *testing.T) {
	err := PanicError("index out of range")
	if err == nil || IsInjected(err) || Retryable(err) {
		t.Fatalf("real panic converted to %v, want non-retryable non-injected", err)
	}
}

// TestParse round-trips specs and rejects malformed ones.
func TestParse(t *testing.T) {
	p, err := Parse("error=0.2, panic=0.1,delay=0.05,torn=0.1,maxdelay=3ms", 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.rates[Error] != 0.2 || p.rates[Panic] != 0.1 || p.rates[Delay] != 0.05 || p.rates[TornWrite] != 0.1 {
		t.Fatalf("parsed rates %v", p.rates)
	}
	if p.maxDelay != 3*time.Millisecond {
		t.Fatalf("parsed maxDelay %v", p.maxDelay)
	}

	if p, err := Parse("", 1); err != nil || p != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{
		"bogus=0.1", "error", "error=x", "error=1.5", "error=0.7,panic=0.7", "maxdelay=-1s", "error=-0.1",
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestSeedChangesSchedule: two seeds disagree somewhere (the plan is a
// function of its seed).
func TestSeedChangesSchedule(t *testing.T) {
	a, _ := New(1, map[Kind]float64{Error: 0.5}, 0)
	b, _ := New(2, map[Kind]float64{Error: 0.5}, 0)
	for i := 0; i < 200; i++ {
		if a.Decide("s", fmt.Sprint(i), 1) != b.Decide("s", fmt.Sprint(i), 1) {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical schedules over 200 keys")
}

// TestParseRejections sweeps every malformed-spec class: unknown kinds,
// rates outside [0,1], structurally broken fields, and bad delays.
func TestParseRejections(t *testing.T) {
	for _, bad := range []string{
		"tornwrite=0.1",                 // unknown kind (the spelled-out name is not the spec name)
		"ERROR=0.1",                     // kinds are case-sensitive
		"=0.3",                          // empty kind
		"error=",                        // empty rate
		"torn=2",                        // rate > 1
		"delay=-0.5",                    // rate < 0
		"error=0.5=0.5",                 // Cut keeps the second '=' in the rate
		"error=0.2;panic",               // wrong field separator
		"maxdelay=abc",                  // unparseable duration
		"maxdelay=0s",                   // zero delay bound is meaningless
		"error=0.4,error=0.7,panic=0.4", // last-wins duplicate keeps the sum over 1
		"error=NaN,panic=0.5",           // NaN fails every comparison, so it must be rejected explicitly
		"torn=nan",                      // ParseFloat reads NaN case-insensitively
	} {
		if p, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", bad, p)
		}
	}
	// Whitespace and empty fields are tolerated, not errors.
	if _, err := Parse(" error=0.2 , , torn=0.1 ", 1); err != nil {
		t.Fatalf("whitespace/empty fields rejected: %v", err)
	}
}

// TestSpecRoundTrip: Plan.Spec re-parses into an equivalent plan — same
// rates, same delay bound, and therefore the same deterministic
// schedule — so a logged spec string is sufficient to reproduce a run.
func TestSpecRoundTrip(t *testing.T) {
	if s := (*Plan)(nil).Spec(); s != "" {
		t.Fatalf("nil plan Spec = %q, want empty", s)
	}
	for _, spec := range []string{
		"error=0.25",
		"error=0.2,panic=0.1,delay=0.05,torn=0.1,maxdelay=3ms",
		"torn=0.5,maxdelay=1h",
		"delay=1",
	} {
		p, err := Parse(spec, 77)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		q, err := Parse(p.Spec(), 77)
		if err != nil {
			t.Fatalf("Parse(Spec()=%q): %v", p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Fatalf("Spec not a fixed point: %q -> %q", p.Spec(), q.Spec())
		}
		if q.rates != p.rates || q.maxDelay != p.maxDelay {
			t.Fatalf("round-trip changed the plan: %+v vs %+v", q, p)
		}
		for i := 0; i < 100; i++ {
			key := fmt.Sprint(i)
			if p.Decide("site", key, 1) != q.Decide("site", key, 1) {
				t.Fatalf("round-trip changed the schedule at key %s", key)
			}
			if p.Decide("site", key, 1) == Delay &&
				p.DelayFor("site", key, 1) != q.DelayFor("site", key, 1) {
				t.Fatalf("round-trip changed delay lengths at key %s", key)
			}
		}
	}
}

// TestBackoff pins the retry schedule's shape: deterministic per (key,
// attempt), within [0.5, 1.5) of base·2^min(attempt, 6), and jittered
// differently for different keys.
func TestBackoff(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 10; attempt++ {
		d := Backoff(base, "job", attempt)
		if d != Backoff(base, "job", attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		nominal := base << min(attempt, 6)
		if d < nominal/2 || d >= nominal*3/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, nominal/2, nominal*3/2)
		}
	}
	distinct := map[time.Duration]bool{}
	for _, key := range []string{"a", "b", "c", "d"} {
		distinct[Backoff(base, key, 1)] = true
	}
	if len(distinct) < 2 {
		t.Error("backoff jitter does not depend on the key")
	}
}

// TestNewRejectsNaNRate: a NaN rate is no probability. Both range checks
// and the sum check are false for NaN, and Spec would silently drop it.
func TestNewRejectsNaNRate(t *testing.T) {
	if p, err := New(1, map[Kind]float64{Error: math.NaN(), Panic: 0.5}, 0); err == nil {
		t.Fatalf("New accepted a NaN rate: %q", p.Spec())
	}
}

// FuzzParse: Parse never panics, and an accepted plan round-trips:
// re-parsing its Spec gives back a plan with the same Spec.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "error=0.2,panic=0.1,delay=0.05,torn=0.1,maxdelay=3ms", "torn=0.5,maxdelay=1h",
		"delay=1", "error=NaN,panic=0.5", "error=0x1p-2", "error=0,maxdelay=1.5ns", " , error=1e-300 ",
	} {
		f.Add(spec, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		p, err := Parse(spec, seed)
		if err != nil || p == nil {
			return
		}
		q, err := Parse(p.Spec(), seed)
		if err != nil {
			t.Fatalf("Parse(%q).Spec() = %q does not re-parse: %v", spec, p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Fatalf("Spec not a fixed point: %q -> %q", p.Spec(), q.Spec())
		}
	})
}
