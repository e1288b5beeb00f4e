package main

import (
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTicks is the machine-wide CPU accounting of /proc/stat, in clock
// ticks: time the CPUs ran anything, and steal, time a hypervisor kept a
// runnable virtual CPU off its physical one to run other guests.
type cpuTicks struct {
	busy, steal float64
}

// readCPUTicks reads the counters; where the system has no /proc/stat
// it returns zeros, which ranShare reads as "no steal".
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// ranShare is the share of the time the CPUs were wanted between a and b
// that they actually ran: busy / (busy + steal). It is 1 on a machine
// with no neighbours, or when no time passed.
func ranShare(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// stealClock samples the machine's CPU accounting every sampleEvery while
// a run measures, so the steal of any stretch of the run can be removed:
// a duration from start to end multiplied by ran(start, end) is, to first
// order, the time it would have taken had the hypervisor not given the
// CPUs to other guests. On a shared host steal moved the same run's wall
// time by a third, and in bursts of seconds took more than half of it.
type stealClock struct {
	mu      sync.Mutex
	samples []tickSample // in time order
	stop    chan struct{}
	done    chan struct{}
}

type tickSample struct {
	at time.Time
	cpuTicks
}

// sampleEvery is the clock tick of /proc/stat, so that a job of tens of
// milliseconds is corrected by the steal over its own span. Corrected by
// the steal of its whole round instead, sweep-model's latency_ms_iqm
// spread 6-11% over runs; by its own span, sampled at this rate, about
// 4%. A sample costs about 40 µs.
const sampleEvery = 10 * time.Millisecond

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	c.mu.Lock()
	c.samples = append(c.samples, tickSample{time.Now(), readCPUTicks()})
	c.mu.Unlock()
}

// close stops the sampler and waits for it to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// ran is ranShare between the last sample at or before start and the
// first at or after end, sampling now if end is later than every sample.
// A nil clock reports 1: no correction.
func (c *stealClock) ran(start, end time.Time) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	late := c.samples[len(c.samples)-1].at.Before(end)
	c.mu.Unlock()
	if late {
		c.sample()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.samples
	i := max(sort.Search(len(s), func(k int) bool { return s[k].at.After(start) })-1, 0)
	j := min(sort.Search(len(s), func(k int) bool { return !s[k].at.Before(end) }), len(s)-1)
	return ranShare(s[i].cpuTicks, s[j].cpuTicks)
}

// net is the duration from start to end with its steal removed.
func (c *stealClock) net(start, end time.Time) time.Duration {
	return time.Duration(float64(end.Sub(start)) * c.ran(start, end))
}

// cpuTime is the CPU time this process has used, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's peak resident set in MiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// heapAllocs is the number of bytes this process has allocated on the Go
// heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
