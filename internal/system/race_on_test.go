//go:build race

package system

// raceEnabled gates allocation-count assertions; see race_off_test.go.
const raceEnabled = true
