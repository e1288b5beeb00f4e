package main

import (
	"context"
	"testing"

	"repro/internal/expt"
	"repro/internal/reorder"
)

// tinySweeps are the three sweep workloads shrunk to two small circuits
// and one job per circuit and round, so the smoke test takes seconds.
func tinySweeps() []*sweepWorkload {
	small := []string{"c17", "cm138a"}
	a, b, m := sweepAUnit, sweepBUnit, sweepModel
	a.benches, a.seeds, a.horizonA = small, 1, 1e-5
	b.benches, b.seeds, b.cyclesB = small, 1, 20
	m.benches = small
	m.scenarios = []expt.Scenario{expt.ScenarioB}
	m.modes = []reorder.Mode{reorder.Full, reorder.DelayRule}
	return []*sweepWorkload{&a, &b, &m}
}

// TestSweepSmoke runs every sweep workload for one round, checks its
// results, and re-executes the round through the traced mirror, whose
// results must hash to the same digest as sweep.Run's.
func TestSweepSmoke(t *testing.T) {
	for _, w := range tinySweeps() {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			env, err := w.setup(tr)
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			run, err := w.measure(context.Background(), env, 7, 0, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.rounds) != 1 || run.failed != 0 || len(run.bad) != 0 {
				t.Fatalf("%d rounds, %d failed, problems %q", len(run.rounds), run.failed, run.bad)
			}
			res := newOutcome()
			if err := run.endToEnd(res, nil); err == nil {
				t.Error("a two-job run reported a median it cannot support")
			}
			round := run.rounds[0]
			digest, err := mirrorRound(tr, round, w.journal, tmp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if digest != round.digest {
				t.Fatalf("traced mirror digest %s, sweep.Run digest %s", digest, round.digest)
			}
			sweepLayers(tr, res, 1, 1, 1, run)
			if res.values["trace.ops"] != float64(len(round.results)) {
				t.Errorf("traced %v jobs, round has %d", res.values["trace.ops"], len(round.results))
			}
			other := res.values["job.other.pct"]
			if other < 0 || other > 5 {
				t.Errorf("job.other.pct = %.2f%%: the spans miss part of the job", other)
			}
			if w.simulate && (res.samples["sim.run.pct"] != 2*len(round.results) || res.values["stoch.pack.transitions"] == 0) {
				t.Errorf("%d sim.run spans and %v packed transitions for %d jobs, want two spans a job",
					res.samples["sim.run.pct"], res.values["stoch.pack.transitions"], len(round.results))
			}
			if w.journal && res.values["store.put.bytes"] == 0 {
				t.Error("journaled workload traced no store puts")
			}
		})
	}
}

// TestServeSmoke runs a shrunken service workload open and closed loop,
// traced, and checks every reply.
func TestServeSmoke(t *testing.T) {
	w := serveMix
	w.benches = []string{"c17", "cm138a"}
	w.rate, w.golden = 100, 20
	tr := newTracer()
	env, err := w.setup(tr)
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.measure(context.Background(), env, 3, 1, true)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	res := newOutcome()
	golden := w.check(run, res)
	if !res.correct() || res.attempted != len(run.open)+len(run.closed) {
		t.Fatalf("%d of %d requests failed; problems %q", res.failed, res.attempted, res.problems)
	}
	if len(golden) == 0 || len(golden) > w.golden {
		t.Errorf("digest covers %d exchanges, want 1..%d", len(golden), w.golden)
	}
	serveLayers(&w, tr, nil, res, run)
	if res.values["serve.cache.response.hit.pct"] <= 0 {
		t.Error("repeated requests never hit the response cache")
	}
	if res.values["serve.handler.pct"] <= 0 || res.values["serve.handler.pct"] > 100 {
		t.Errorf("serve.handler.pct = %v", res.values["serve.handler.pct"])
	}
}

// TestStreamIsDeterministic pins that the request stream is a pure
// function of the seed and deals kinds and repeats in exact shares.
func TestStreamIsDeterministic(t *testing.T) {
	a, b := serveMix.stream(5), serveMix.stream(5)
	seen := map[string]bool{}
	fresh := map[string]int{}
	draws := 0
	for len(seen) < 300 {
		ra, rb := a(), b()
		if ra.key() != rb.key() {
			t.Fatalf("request %d differs between two streams of one seed", draws)
		}
		if !seen[ra.key()] {
			seen[ra.key()] = true
			fresh[ra.kind]++
		}
		draws++
	}
	// 300 new requests are three decks of the mix, and one draw in
	// repeatEvery repeats (the very first repeat slot may find nothing to
	// repeat and deal a new request instead).
	for _, m := range serveMix.mix {
		if fresh[m.kind] != 3*m.weight {
			t.Errorf("%s: %d new requests, want %d", m.kind, fresh[m.kind], 3*m.weight)
		}
	}
	if want := 300 * serveMix.repeatEvery / (serveMix.repeatEvery - 1); draws < want-1 || draws > want+serveMix.repeatEvery {
		t.Errorf("%d draws for 300 new requests, want about %d", draws, want)
	}
}
