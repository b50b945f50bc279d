//go:build !race

package serve

// raceEnabled reports whether the race detector is active; allocation
// guards are skipped under -race, where sync.Pool drops pooled scratch at
// random and the instrumentation allocates.
const raceEnabled = false
