//go:build race

package core

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under it (instrumentation allocates, and
// sync.Pool drops what is put back at random).
const raceEnabled = true
