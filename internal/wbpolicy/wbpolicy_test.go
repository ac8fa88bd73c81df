package wbpolicy

import (
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
)

// tinySketch is a one-L2 reuse policy whose sketch is 4-set x 2-way,
// with an abort threshold of 4 misses and an EWMA half-weight (shift
// 1), small enough to exercise set conflicts and LRU displacement
// directly. Set index = key & 3.
func tinySketch() (*reuse, *sketch) {
	a := newSketch(config.ReuseDistConfig{
		Entries: 8, Assoc: 2, MaxDistance: 4, EWMAShift: 1,
	})
	return &reuse{sketches: []*sketch{a}}, a
}

func TestReuseSketchTrainsDistance(t *testing.T) {
	p, a := tinySketch()
	const k = uint64(16) // set 0

	// Untrained lines copy back (conservative default) and count cold.
	if p.AbortCleanWB(0, k, false, false) {
		t.Fatal("untrained line aborted its copy-back")
	}
	if a.cold != 1 || a.consults != 0 {
		t.Fatalf("cold=%d consults=%d, want 1/0", a.cold, a.consults)
	}

	// Evict at miss 0, re-miss 7 misses later: distance 7 > 4 aborts.
	p.ObserveEviction(0, k)
	for i := 0; i < 6; i++ {
		p.ObserveLocalMiss(0, uint64(100+4*i)) // distinct sets, no training
	}
	p.ObserveLocalMiss(0, k)
	if a.samples != 1 {
		t.Fatalf("samples = %d, want 1", a.samples)
	}
	if !p.AbortCleanWB(0, k, false, true) {
		t.Fatal("distance 7 > max 4 did not abort")
	}
	if a.consults != 1 || a.aborts != 1 || a.abortsInL3 != 1 {
		t.Fatalf("consults/aborts/inL3 = %d/%d/%d, want 1/1/1",
			a.consults, a.aborts, a.abortsInL3)
	}
}

func TestReuseSketchEWMAFold(t *testing.T) {
	p, a := tinySketch()
	const k = uint64(16)

	// First sample: 7 (evict at 0, re-miss at 7).
	p.ObserveEviction(0, k)
	for i := 0; i < 6; i++ {
		p.ObserveLocalMiss(0, uint64(100+4*i))
	}
	p.ObserveLocalMiss(0, k)

	// Second sample: 1 (evict at 7, immediate re-miss). With shift 1 the
	// fold is dist += (1>>1) - (7>>1) = 7 - 3 = 4, which is on the
	// threshold: 4 > 4 is false, so the line copies back again.
	p.ObserveEviction(0, k)
	p.ObserveLocalMiss(0, k)
	if a.samples != 2 {
		t.Fatalf("samples = %d, want 2", a.samples)
	}
	if e := a.lookup(k); e == nil || e.dist != 4 {
		t.Fatalf("EWMA after samples 7,1 = %+v, want dist 4", e)
	}
	if p.AbortCleanWB(0, k, false, false) {
		t.Fatal("dist 4 at threshold 4 aborted; threshold is strict")
	}
}

// TestReuseSketchLRUDisplacement: a 2-way set tracks at most two tags;
// the least recently touched one is forgotten, and a consult (even a
// cold one) refreshes recency.
func TestReuseSketchLRUDisplacement(t *testing.T) {
	p, a := tinySketch()
	k0, k4, k8 := uint64(0), uint64(4), uint64(8) // all map to set 0

	p.ObserveEviction(0, k0)
	p.ObserveEviction(0, k4)
	p.AbortCleanWB(0, k0, false, false) // cold consult moves k0 to MRU
	p.ObserveEviction(0, k8)            // displaces k4, the LRU way

	p.ObserveLocalMiss(0, k4) // forgotten: no interval to close
	if a.samples != 0 {
		t.Fatalf("displaced tag still produced a sample (samples=%d)", a.samples)
	}
	p.ObserveLocalMiss(0, k0) // retained: closes the pending interval
	if a.samples != 1 {
		t.Fatalf("retained tag lost its interval (samples=%d)", a.samples)
	}
}

func TestReuseSketchRejectsBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count did not panic")
		}
	}()
	newSketch(config.ReuseDistConfig{Entries: 6, Assoc: 2})
}

// tinyHybrid is a 4-set x 2-way score table with update threshold 2.
func tinyHybrid() *hybrid {
	cfg := config.Default().WithMechanism(config.HybridUI)
	cfg.HybridUI = config.HybridUIConfig{Entries: 8, Assoc: 2, UpdateThreshold: 2}
	return newHybrid(&cfg)
}

// peerRead is the outcome shape that scores a consumer touch: the line
// was found on chip.
var peerRead = coherence.Outcome{Source: coherence.SourcePeerL2, SourceAgent: 1, SharedElsewhere: true}

func TestHybridScoreRoutesUpgrades(t *testing.T) {
	p := tinyHybrid()
	const k = uint64(5)

	// Below threshold: invalidate, and the miss resets the score.
	p.ObserveDemandOutcome(0, k, coherence.Read, peerRead)
	if p.UseUpdate(k) {
		t.Fatal("score 1 < threshold 2 chose update")
	}
	if p.stats.InvalidateUpgrades != 1 {
		t.Fatalf("InvalidateUpgrades = %d, want 1", p.stats.InvalidateUpgrades)
	}

	// Two consumer reads reach the threshold: update, score halves so a
	// single further read keeps the line in update mode.
	p.ObserveDemandOutcome(0, k, coherence.Read, peerRead)
	p.ObserveDemandOutcome(0, k, coherence.Read, peerRead)
	if !p.UseUpdate(k) {
		t.Fatal("score 2 at threshold 2 chose invalidate")
	}
	if p.stats.UpdatePushes != 1 || p.stats.ScoredReads != 3 {
		t.Fatalf("UpdatePushes=%d ScoredReads=%d, want 1/3", p.stats.UpdatePushes, p.stats.ScoredReads)
	}
	p.ObserveDemandOutcome(0, k, coherence.Read, peerRead) // 1 + 1 = 2
	if !p.UseUpdate(k) {
		t.Fatal("halved score + one read fell out of update mode")
	}
}

func TestHybridUnsharedReadsDoNotScore(t *testing.T) {
	p := tinyHybrid()
	const k = uint64(5)
	// A read satisfied by L3/memory with no other sharers trains nothing.
	p.ObserveDemandOutcome(0, k, coherence.Read, coherence.Outcome{Source: coherence.SourceMemory, SourceAgent: -1})
	p.ObserveDemandOutcome(0, k, coherence.Read, coherence.Outcome{Source: coherence.SourceMemory, SourceAgent: -1})
	if p.stats.ScoredReads != 0 {
		t.Fatalf("ScoredReads = %d, want 0", p.stats.ScoredReads)
	}
	if p.UseUpdate(k) {
		t.Fatal("unscored line chose update")
	}
}

func TestHybridRWITMClearsScore(t *testing.T) {
	p := tinyHybrid()
	const k = uint64(5)
	p.ObserveDemandOutcome(0, k, coherence.Read, peerRead)
	p.ObserveDemandOutcome(0, k, coherence.Read, peerRead)
	p.ObserveDemandOutcome(1, k, coherence.RWITM, coherence.Outcome{Source: coherence.SourcePeerL2, SourceAgent: 0})
	if p.UseUpdate(k) {
		t.Fatal("RWITM did not clear the sharing score")
	}
}

func TestHybridScoreSaturates(t *testing.T) {
	p := tinyHybrid()
	const k = uint64(5)
	for i := 0; i < 300; i++ {
		p.ObserveDemandOutcome(0, k, coherence.Read, peerRead)
	}
	l := p.score.Lookup(k)
	if l == nil || l.Flags != 255 {
		t.Fatalf("score after 300 reads = %+v, want saturation at 255", l)
	}
}

// TestNewDispatch pins the policy registry: each mechanism gets its own
// policy, only the paper mechanisms ride the retry switch or snoop
// write backs on the ring, and each L2 gets the tables its mechanism
// configures.
func TestNewDispatch(t *testing.T) {
	cases := []struct {
		m             config.Mechanism
		snoops        bool
		gated         bool
		hasStats      bool
		wbht, snarfTb bool
	}{
		{config.Baseline, false, false, false, false, false},
		{config.WBHT, false, true, false, true, false},
		{config.Snarf, true, false, false, false, true},
		{config.Combined, true, true, false, true, true},
		{config.ReuseDist, false, false, true, false, false},
		{config.HybridUI, false, false, true, false, false},
	}
	for _, c := range cases {
		cfg := config.Default().WithMechanism(c.m)
		p := New(&cfg)
		if got := p.SnoopsWB(); got != c.snoops {
			t.Errorf("%v: SnoopsWB = %v, want %v", c.m, got, c.snoops)
		}
		if got := p.GatedBySwitch(); got != c.gated {
			t.Errorf("%v: GatedBySwitch = %v, want %v", c.m, got, c.gated)
		}
		if got := p.Stats() != nil; got != c.hasStats {
			t.Errorf("%v: Stats() != nil is %v, want %v", c.m, got, c.hasStats)
		}
		for i := 0; i < cfg.NumL2(); i++ {
			if got := p.WBHT(i) != nil; got != c.wbht {
				t.Errorf("%v: WBHT(%d) != nil is %v, want %v", c.m, i, got, c.wbht)
			}
			if got := p.SnarfTable(i) != nil; got != c.snarfTb {
				t.Errorf("%v: SnarfTable(%d) != nil is %v, want %v", c.m, i, got, c.snarfTb)
			}
		}
	}
}

// TestBaseDoesNothing pins the baseline behavior every policy inherits
// for the hooks it does not override.
func TestBaseDoesNothing(t *testing.T) {
	var p Policy = Base{}
	switch {
	case p.AbortCleanWB(0, 1, true, true):
		t.Error("Base aborted a clean write back")
	case p.FlagWriteBack(0, 1):
		t.Error("Base flagged a write back snarfable")
	case !p.AcceptOffer(0, 1):
		t.Error("Base declined an offer that passed the structural checks")
	case p.SnoopsWB(), p.GatedBySwitch(), p.UseUpdate(1):
		t.Error("Base snoops write backs, rides the switch or updates sharers")
	case p.WBHT(0) != nil, p.SnarfTable(0) != nil, p.Stats() != nil:
		t.Error("Base exposes a table or counters")
	}
}
