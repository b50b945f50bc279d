//go:build race

package model

// raceEnabled reports whether the race detector is active; alloc-count
// assertions are skipped under -race because its instrumentation allocates.
const raceEnabled = true
