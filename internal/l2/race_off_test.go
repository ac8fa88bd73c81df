//go:build !race

package l2

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation perturbs allocation behavior, so testing.AllocsPerRun
// checks only run in non-race builds.
const raceEnabled = false
