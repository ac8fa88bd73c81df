package l3

import (
	"math/rand/v2"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
)

func smallCfg() config.Config {
	cfg := config.Default()
	// Shrink to 4 slices x 8KB for fast eviction testing.
	cfg.L3SliceMB = 1
	return cfg
}

func newL3(t *testing.T) (*Cache, *config.Config) {
	t.Helper()
	cfg := smallCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(&cfg), &cfg
}

func acceptWB(t *testing.T, c *Cache, key uint64, kind coherence.TxnKind) {
	t.Helper()
	if resp := c.SnoopWB(key, kind); resp != coherence.RespWBAccept {
		t.Fatalf("SnoopWB(%d, %v) = %v, want accept", key, kind, resp)
	}
	c.Insert(key, kind)
	c.ReleaseToken()
}

func TestDemandMissThenVictimHit(t *testing.T) {
	c, _ := newL3(t)
	if resp := c.SnoopDemand(42, coherence.Read, true); resp != coherence.RespNull {
		t.Fatalf("empty L3 demand = %v, want null", resp)
	}
	acceptWB(t, c, 42, coherence.CleanWB)
	if resp := c.SnoopDemand(42, coherence.Read, true); resp != coherence.RespL3Hit {
		t.Fatalf("demand after WB = %v, want L3 hit", resp)
	}
	if c.LoadHitRate() != 0.5 {
		t.Fatalf("LoadHitRate = %v, want 0.5", c.LoadHitRate())
	}
}

func TestRWITMInvalidates(t *testing.T) {
	c, _ := newL3(t)
	acceptWB(t, c, 7, coherence.CleanWB)
	if resp := c.SnoopDemand(7, coherence.RWITM, false); resp != coherence.RespL3Hit {
		t.Fatalf("RWITM on valid line = %v, want hit (supplies data)", resp)
	}
	if c.Contains(7) {
		t.Fatal("line still valid after RWITM")
	}
	if c.Invalidations() != 1 {
		t.Fatalf("Invalidations = %d, want 1", c.Invalidations())
	}
}

func TestUpgradeInvalidatesWithoutData(t *testing.T) {
	c, _ := newL3(t)
	acceptWB(t, c, 9, coherence.CleanWB)
	if resp := c.SnoopDemand(9, coherence.Upgrade, false); resp != coherence.RespNull {
		t.Fatalf("Upgrade = %v, want null (no data supplied)", resp)
	}
	if c.Contains(9) {
		t.Fatal("line still valid after Upgrade claim")
	}
}

func TestBaselineCleanWBSquash(t *testing.T) {
	c, _ := newL3(t)
	acceptWB(t, c, 5, coherence.CleanWB)
	resp := c.SnoopWB(5, coherence.CleanWB)
	if resp != coherence.RespWBRedundant {
		t.Fatalf("redundant clean WB = %v, want redundant", resp)
	}
	// A squash consumes no queue token.
	if c.QueueInUse() != 0 {
		t.Fatalf("queue in use = %d after squash, want 0", c.QueueInUse())
	}
	if c.CleanWBSnooped() != 2 || c.CleanWBRedundant() != 1 {
		t.Fatalf("Table 1 stats = %d/%d, want 2/1", c.CleanWBRedundant(), c.CleanWBSnooped())
	}
}

func TestDirtyWBOnPresentLineIsUpdate(t *testing.T) {
	c, _ := newL3(t)
	acceptWB(t, c, 5, coherence.CleanWB)
	resp := c.SnoopWB(5, coherence.DirtyWB)
	if resp != coherence.RespWBAccept {
		t.Fatalf("dirty WB on valid clean line = %v, want accept (update)", resp)
	}
	c.Insert(5, coherence.DirtyWB)
	c.ReleaseToken()
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1 (update, not duplicate)", c.Occupancy())
	}
}

func TestQueueFullRetries(t *testing.T) {
	cfg := smallCfg()
	cfg.L3QueueEntries = 2
	c := New(&cfg)
	if c.SnoopWB(0, coherence.DirtyWB) != coherence.RespWBAccept {
		t.Fatal("first WB rejected")
	}
	if c.SnoopWB(1, coherence.DirtyWB) != coherence.RespWBAccept {
		t.Fatal("second WB rejected")
	}
	if resp := c.SnoopWB(2, coherence.DirtyWB); resp != coherence.RespRetry {
		t.Fatalf("WB with full queue = %v, want retry", resp)
	}
	if c.RetriesIssued() != 1 {
		t.Fatalf("RetriesIssued = %d, want 1", c.RetriesIssued())
	}
	c.ReleaseToken()
	if resp := c.SnoopWB(2, coherence.DirtyWB); resp != coherence.RespWBAccept {
		t.Fatalf("WB after release = %v, want accept", resp)
	}
}

func TestDirtyEvictionCastsOutToMemory(t *testing.T) {
	cfg := smallCfg()
	c := New(&cfg)
	// Fill one set of slice 0 with dirty lines: keys k where slice(k)=0
	// and same set. Slice-local key = key >> 2; set = sliceKey & (sets-1).
	sets := cfg.L3Lines() / cfg.L3Slices / cfg.L3Assoc
	var keys []uint64
	for i := 0; i <= cfg.L3Assoc; i++ { // one more than assoc
		sliceKey := uint64(i * sets) // same set, different tags
		keys = append(keys, sliceKey<<2)
	}
	var castouts int
	for _, k := range keys {
		if c.SnoopWB(k, coherence.DirtyWB) != coherence.RespWBAccept {
			t.Fatal("WB rejected unexpectedly")
		}
		if co, ok := c.Insert(k, coherence.DirtyWB); ok {
			castouts++
			// The castout key must be one of the inserted keys.
			if co.Key != keys[0] {
				t.Fatalf("castout key = %#x, want LRU key %#x", co.Key, keys[0])
			}
		}
		c.ReleaseToken()
	}
	if castouts != 1 {
		t.Fatalf("castouts = %d, want 1", castouts)
	}
	if c.Castouts() != 1 {
		t.Fatalf("Castouts() = %d, want 1", c.Castouts())
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	cfg := smallCfg()
	c := New(&cfg)
	sets := cfg.L3Lines() / cfg.L3Slices / cfg.L3Assoc
	for i := 0; i <= cfg.L3Assoc; i++ {
		k := uint64(i*sets) << 2
		if c.SnoopWB(k, coherence.CleanWB) != coherence.RespWBAccept {
			t.Fatal("WB rejected")
		}
		if _, ok := c.Insert(k, coherence.CleanWB); ok {
			t.Fatal("clean eviction produced a castout")
		}
		c.ReleaseToken()
	}
}

func TestSliceDistribution(t *testing.T) {
	c, cfg := newL3(t)
	// Consecutive line keys must land in different slices.
	for k := uint64(0); k < uint64(cfg.L3Slices); k++ {
		acceptWB(t, c, k, coherence.CleanWB)
	}
	if c.Occupancy() != cfg.L3Slices {
		t.Fatalf("occupancy = %d, want %d", c.Occupancy(), cfg.L3Slices)
	}
	// All in set 0 of their slice: no evictions can have happened.
	if c.Castouts() != 0 {
		t.Fatal("unexpected castouts")
	}
}

func TestReserveSliceSerializesPerSlice(t *testing.T) {
	c, cfg := newL3(t)
	a := c.ReserveSlice(0, 100)
	b := c.ReserveSlice(0, 100) // same slice: serialized
	d := c.ReserveSlice(1, 100) // different slice: parallel
	if a != 100 || b != 100+cfg.L3SliceOccupancy || d != 100 {
		t.Fatalf("starts = %d/%d/%d", a, b, d)
	}
}

func TestContainsIsNonPerturbing(t *testing.T) {
	c, _ := newL3(t)
	acceptWB(t, c, 3, coherence.CleanWB)
	before := c.DemandLookups()
	if !c.Contains(3) || c.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if c.DemandLookups() != before {
		t.Fatal("Contains perturbed lookup stats")
	}
}

// TestOccupancyMatchesScan drives random inserts, invalidating and
// non-invalidating snoops and clean write-back snoops into a few sets,
// so lines fill invalid ways, evict and leave, and checks the live
// count against a scan of the tag array after every step.
func TestOccupancyMatchesScan(t *testing.T) {
	c, cfg := newL3(t)
	sets := uint64(cfg.L3Lines() / cfg.L3Assoc)
	rng := rand.New(rand.NewPCG(7, 11))
	kinds := []coherence.TxnKind{coherence.Read, coherence.RWITM, coherence.Upgrade}
	for step := 0; step < 20000; step++ {
		// 48 candidate lines for each of 4 sets of 16 ways.
		key := rng.Uint64N(48)*sets + rng.Uint64N(4)
		switch rng.IntN(4) {
		case 0:
			c.Insert(key, coherence.CleanWB)
		case 1:
			c.Insert(key, coherence.DirtyWB)
		case 2:
			c.SnoopDemand(key, kinds[rng.IntN(len(kinds))], rng.IntN(2) == 0)
		case 3:
			if c.SnoopWB(key, coherence.CleanWB) == coherence.RespWBAccept {
				c.ReleaseToken()
			}
		}
		if got, want := c.Occupancy(), c.tags.CountValid(); got != want {
			t.Fatalf("step %d: Occupancy = %d, scan counts %d", step, got, want)
		}
	}
	if c.Evictions() == 0 || c.Invalidations() == 0 {
		t.Fatalf("evictions %d, invalidations %d: the walk missed a path", c.Evictions(), c.Invalidations())
	}
}
