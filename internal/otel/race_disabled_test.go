//go:build !race

package otel

// raceEnabled gates allocation-count assertions: the race detector
// instruments allocations, so AllocsPerRun bounds only hold without it.
const raceEnabled = false
