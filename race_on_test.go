//go:build race

package cmpcache_test

// raceEnabled gates allocation-count assertions; see race_off_test.go.
const raceEnabled = true
