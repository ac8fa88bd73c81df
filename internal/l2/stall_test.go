package l2

import (
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/wbpolicy"
)

// TestStallMarkingSites covers each of the six sites that can change a
// stalled miss's re-poll outcome: a registration on the site's key
// becomes changed, and one on another key does not.
func TestStallMarkingSites(t *testing.T) {
	const key, other = uint64(0x40), uint64(0x41)
	sites := []struct {
		name string
		run  func(c *Cache)
	}{
		{"InstallFill", func(c *Cache) { c.InstallFill(key, coherence.Shared) }},
		{"Reinstall", func(c *Cache) {
			c.Reinstall(WBEntry{Key: key, Kind: coherence.DirtyWB, State: coherence.Modified})
		}},
		{"AcceptSnarf", func(c *Cache) {
			if _, _, ok := c.AcceptSnarf(WBEntry{Key: key, Kind: coherence.CleanWB, State: coherence.Exclusive}); !ok {
				t.Fatal("AcceptSnarf declined on an empty cache")
			}
		}},
		{"ProcessVictim", func(c *Cache) {
			if a := c.ProcessVictim(key, coherence.Modified, false, false); a != VictimQueued {
				t.Fatalf("dirty victim %v, want queued", a)
			}
		}},
		{"RequeueWB", func(c *Cache) {
			c.RequeueWB(WBEntry{Key: key, Kind: coherence.DirtyWB, State: coherence.Modified, InFlight: true})
		}},
		{"AllocMSHR", func(c *Cache) { c.AllocMSHR(key, coherence.Read, false) }},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			c, _ := newL2(t, config.Snarf)
			mine, theirs := c.Stall(key), c.Stall(other)
			if c.StallChanged(mine) || c.StallChanged(theirs) {
				t.Fatal("fresh registration reads changed")
			}
			site.run(c)
			if !c.StallChanged(mine) {
				t.Errorf("%s on %#x left its registration unchanged", site.name, key)
			}
			if c.StallChanged(theirs) {
				t.Errorf("%s on %#x changed the registration on %#x", site.name, key, other)
			}
		})
	}
}

// TestStallSlotReuse: a dropped registration's slot comes back clean,
// even if its old key was marked after the drop, and registering more
// misses than the threads can have outstanding panics.
func TestStallSlotReuse(t *testing.T) {
	c, cfg := newL2(t, config.Baseline)
	id := c.Stall(7)
	c.Unstall(id)
	c.AllocMSHR(7, coherence.Read, false)
	if again := c.Stall(7); again != id || c.StallChanged(again) {
		t.Fatalf("reused slot %d (want %d) reads changed=%v", again, id, c.StallChanged(again))
	}
	for i := 1; i < cfg.ThreadsPerL2()*cfg.MaxOutstanding; i++ {
		c.Stall(uint64(100 + i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering past the outstanding-miss bound did not panic")
		}
	}()
	c.Stall(99)
}

// stalledCache builds the state a stalled miss re-polls against: every
// set full, the write-back queue full and half the MSHRs live. It
// returns the cache and a key that misses in a full set.
func stalledCache(tb testing.TB) (*Cache, uint64) {
	tb.Helper()
	cfg := config.Default()
	c := New(0, &cfg, wbpolicy.New(&cfg))
	lines := uint64(cfg.L2Lines())
	for k := uint64(0); k < lines; k++ {
		c.InstallFill(k, coherence.Shared)
	}
	for i := 0; i < cfg.WBQueueEntries; i++ {
		c.ProcessVictim(2*lines+uint64(i), coherence.Modified, false, false)
	}
	for i := 0; i < cfg.MSHRsPerL2/2; i++ {
		c.AllocMSHR(3*lines+uint64(i), coherence.Read, false)
	}
	if !c.WBQueueFull() {
		tb.Fatal("write-back queue not full")
	}
	return c, lines + 5
}

func noteDone(config.Cycles) {}

// TestStallRepollAllocationFree: a stall, a re-poll and an unstall on
// one cache allocate nothing.
func TestStallRepollAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	c, key := stalledCache(t)
	avg := testing.AllocsPerRun(1000, func() {
		if c.Probe(key, false, false) != ProbeMiss || c.AttachMSHR(key, false, noteDone) {
			t.Fatal("probe did not miss")
		}
		id := c.Stall(key)
		if c.StallChanged(id) || !(c.WBQueueFull() || c.MSHRFull()) {
			t.Fatal("re-poll would not stall")
		}
		c.Unstall(id)
	})
	if avg != 0 {
		t.Fatalf("stall, re-poll and unstall allocate %.1f objects, want 0", avg)
	}
}

// BenchmarkStalledRepoll times one re-poll of a miss stalled on a full
// write-back queue, in a cache whose sets are full and half of whose
// MSHRs are live. full-probe is the whole probe (tag scan, write-back
// queue scan, MSHR scan, fullness) that a re-poll runs once its
// registration has changed; registered is the short path a re-poll
// takes while its registration is unchanged.
func BenchmarkStalledRepoll(b *testing.B) {
	c, key := stalledCache(b)
	b.Run("full-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c.Probe(key, false, false) != ProbeMiss || c.AttachMSHR(key, false, noteDone) ||
				!(c.WBQueueFull() || c.MSHRFull()) {
				b.Fatal("re-poll did not stall")
			}
		}
	})
	b.Run("registered", func(b *testing.B) {
		id := c.Stall(key)
		for i := 0; i < b.N; i++ {
			if c.StallChanged(id) || !(c.WBQueueFull() || c.MSHRFull()) {
				b.Fatal("re-poll did not stall")
			}
		}
		c.Unstall(id)
	})
}
