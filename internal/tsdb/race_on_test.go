//go:build race

package tsdb

// raceEnabled reports whether the race detector is active; latency
// budgets are skipped under it (instrumentation slows every access).
const raceEnabled = true
