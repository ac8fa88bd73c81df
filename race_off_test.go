//go:build !race

package cmpcache_test

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation perturbs allocation behavior, so testing.AllocsPerRun
// checks only run in non-race builds.
const raceEnabled = false
