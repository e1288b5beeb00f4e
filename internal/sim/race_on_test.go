//go:build race

package sim

// raceEnabled skips allocation assertions under the race detector, whose
// sync.Pool deliberately drops pooled items.
const raceEnabled = true
