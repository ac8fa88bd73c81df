//go:build race

package l2

// raceEnabled gates allocation-count assertions; see race_off_test.go.
const raceEnabled = true
