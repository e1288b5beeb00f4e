package main

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime drives a handler that stalls every request
// for the first 300 ms. Requests due during the stall keep being sent on
// schedule, and each is timed from its due time, so the ones that waited
// for a connection behind the stall report the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	first := true
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if first {
			first = false
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	})
	env, err := startEnv(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()

	const n = 40
	reqs := make([]request, n)
	due := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = request{kind: "analyze", path: "/v1/analyze", body: []byte("{}")}
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	reps, late := serveMix.openLoop(context.Background(), env, reqs, due)
	for i, rep := range reps {
		if rep.err != nil {
			t.Fatalf("request %d: %v", i, rep.err)
		}
		if late[i] > 100*time.Millisecond {
			t.Errorf("request %d dispatched %v late: the generator waited on the stalled handler", i, late[i])
		}
		if due[i] < stall-20*time.Millisecond {
			// Completed no earlier than the stall's end, timed from its due time.
			if min := stall - due[i] - 10*time.Millisecond; rep.latency() < min {
				t.Errorf("request %d due at %v: latency %v, want at least %v", i, due[i], rep.latency(), min)
			}
		}
	}
	if last := reps[n-1].latency(); last > 100*time.Millisecond {
		t.Errorf("request due after the stall took %v", last)
	}
}
