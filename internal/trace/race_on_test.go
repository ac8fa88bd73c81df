//go:build race

package trace

// raceEnabled gates allocation-count assertions; see race_off_test.go.
const raceEnabled = true
