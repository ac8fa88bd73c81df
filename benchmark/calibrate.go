package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// calibrationRef is the median time of one calibration on the host the
// recorded numbers come from (README.md, "Recorded numbers").
const calibrationRef = 0.2

// calibrator measures how fast the host runs at the moment, with a fixed
// piece of work that belongs to the benchmark, not to the programs. The
// host this benchmark was made on slows down and speeds up by a fifth
// over minutes, and the programs' wall and CPU time move with it; this
// work tracks that drift, so host times divided by its slowdown compare
// across runs made minutes apart. A change to the programs does not
// change it: it runs alone, between repetitions.
//
// The work runs in a process of its own. A program's peak RSS, as rusage
// reports it, is at least the benchmark's own peak at the time it was
// started, so the benchmark must stay small.
type calibrator struct {
	times []float64
}

// calibrateEvery is the measured work per calibration. One calibration
// is as noisy as the drift it corrects (12% back to back), so a run
// needs several, spread over it: a run of three 9-s serve sessions
// calibrates ten times, one of eight 3.5-s replays nine.
const calibrateEvery = 3 * time.Second

// measureAfter calibrates once per calibrateEvery of the work that went
// before, and at least once.
func (c *calibrator) measureAfter(ctx context.Context, work time.Duration) error {
	for range max(1, int(work/calibrateEvery)) {
		if err := c.measure(ctx); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the work once and records how long it took.
func (c *calibrator) measure(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.CommandContext(ctx, self, "calibrate").Output()
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	s, err := strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	c.times = append(c.times, s)
	return nil
}

// slowdown is the median calibration time over calibrationRef: above 1
// when the host runs slower than the one the recorded numbers come from.
func (c *calibrator) slowdown() float64 {
	return median(c.times) / calibrationRef
}

// calibrateMain is `benchmark calibrate`: it times the calibration work
// once and prints the seconds it took. The work is an integer loop,
// pointer chases through 256 KB and 32 MB, and a Go map that grows and
// is cleared.
func calibrateMain() int {
	small, big := cycle(1<<16), cycle(1<<23)
	start := time.Now()
	x := uint64(88172645463325252)
	var h uint64
	for range 20_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h += x * 0x9e3779b97f4a7c15
	}
	var i uint32
	for range 8_000_000 {
		i = small[i]
	}
	for range 400_000 {
		i = big[i]
	}
	m := make(map[uint64]uint64)
	for range 700_000 {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>44] += x
		if len(m) > 1<<18 {
			clear(m)
		}
	}
	fmt.Println(time.Since(start).Seconds())
	calibrationSink = h + uint64(i) + uint64(len(m))
	return 0
}

// calibrationSink keeps the calibration loops' results live.
var calibrationSink uint64

// cycle returns a table of n entries, n a power of two, whose chase
// i = t[i] visits every entry in a scattered order: t[i] = a*i + c mod n
// with a ≡ 1 (mod 4) and c odd is a single cycle.
func cycle(n int) []uint32 {
	t := make([]uint32, n)
	for i := range t {
		t[i] = uint32((2862933555777941757*uint64(i) + 3037000493) & uint64(n-1))
	}
	return t
}
