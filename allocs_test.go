package cmpcache_test

import (
	"math/bits"
	"testing"

	"cmpcache"
)

// detachedRunAllocs is the exact heap-allocation count of one serial
// run of a 4000-refs/thread Trade2 trace with nothing attached: system
// construction over a source split beforehand, plus the whole event
// loop and result assembly. The event loop itself is allocation-free in
// steady state, so the count comes from sizing the model and the
// per-line tables to the trace. A rise means a hot path started
// allocating (or a detached observation hook stopped being free); a
// fall is welcome — lower the constant. The count depends on the
// pointer size, through the allocator's size classes and slice growth,
// so it is pinned per pointer size: 64-bit on amd64, 32-bit on 386.
var detachedRunAllocs = map[int]float64{64: 637, 32: 545}[bits.UintSize]

// TestDetachedRunAllocs pins detachedRunAllocs. testing.AllocsPerRun
// runs at GOMAXPROCS(1), so runtime background work does not leak into
// the count on multi-core hosts.
func TestDetachedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	tr, err := cmpcache.GenerateWorkloadSized("trade2", 4000)
	if err != nil {
		t.Fatal(err)
	}
	// The source is built once, outside the measurement, as every
	// caller that replays a trace builds it.
	src := memSource(t, tr)
	cfg := cmpcache.DefaultConfig()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != detachedRunAllocs {
		t.Fatalf("one detached serial run allocates %.0f times, pinned %.0f on %d-bit", allocs, detachedRunAllocs, bits.UintSize)
	}
}
