//go:build race

package dispatch

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so a bound on what a pooled path allocates does not hold under it.
const raceEnabled = true
