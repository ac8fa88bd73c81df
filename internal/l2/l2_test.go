package l2

import (
	"strings"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/wbpolicy"
)

func newL2(t *testing.T, m config.Mechanism) (*Cache, *config.Config) {
	t.Helper()
	cfg := config.Default().WithMechanism(m)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(0, &cfg, wbpolicy.New(&cfg)), &cfg
}

// fill installs key with state st, failing the test on eviction (tests
// use sparse keys that should not conflict).
func fill(t *testing.T, c *Cache, key uint64, st coherence.State) {
	t.Helper()
	if _, _, ev := c.InstallFill(key, st); ev {
		t.Fatalf("unexpected eviction installing %#x", key)
	}
}

func TestProbeMissThenHit(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	if got := c.Probe(100, false, true); got != ProbeMiss {
		t.Fatalf("probe on empty cache = %v, want miss", got)
	}
	fill(t, c, 100, coherence.Exclusive)
	if got := c.Probe(100, false, true); got != ProbeHit {
		t.Fatalf("probe after fill = %v, want hit", got)
	}
	s := c.StatsSnapshot()
	if s.Accesses != 2 || s.Hits != 1 {
		t.Fatalf("accesses/hits = %d/%d, want 2/1", s.Accesses, s.Hits)
	}
}

func TestStoreSilentUpgradeOnExclusive(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	fill(t, c, 4, coherence.Exclusive)
	// The probe reports the silent E→M upgrade without committing it —
	// the caller owns the transition (and its observation hooks), so the
	// probe must leave the line untouched.
	if got := c.Probe(4, true, true); got != ProbeHitStoreUpgrade {
		t.Fatalf("store on E = %v, want store-upgrade hit", got)
	}
	if st := c.Line(4).State(); st != coherence.Exclusive {
		t.Fatalf("state after probe = %v, want E (probe must not mutate)", st)
	}
	c.Line(4).SetState(coherence.Modified)
	if st := c.Line(4).State(); st != coherence.Modified {
		t.Fatalf("state after commit = %v, want M", st)
	}
}

func TestStoreOnSharedNeedsUpgrade(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	for _, st := range []coherence.State{coherence.Shared, coherence.SharedLast, coherence.Tagged} {
		key := uint64(8 + int(st)*16)
		fill(t, c, key, st)
		if got := c.Probe(key, true, true); got != ProbeHitNeedsUpgrade {
			t.Fatalf("store on %v = %v, want upgrade", st, got)
		}
	}
	// Modified needs nothing.
	fill(t, c, 1000, coherence.Modified)
	if got := c.Probe(1000, true, true); got != ProbeHit {
		t.Fatal("store on M should hit silently")
	}
}

func TestMSHRLifecycle(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	c.AllocMSHR(5, coherence.Read, false)
	if !c.MSHRFor(5) || c.MSHRCount() != 1 {
		t.Fatal("MSHR not registered")
	}
	if c.MSHRKind(5) != coherence.Read {
		t.Fatal("wrong MSHR kind")
	}
	var loadsDone, storesDone int
	if !c.AttachMSHR(5, false, func(config.Cycles) { loadsDone++ }) {
		t.Fatal("attach failed")
	}
	if !c.AttachMSHR(5, true, func(config.Cycles) { storesDone++ }) {
		t.Fatal("attach failed")
	}
	if c.AttachMSHR(6, false, func(config.Cycles) {}) {
		t.Fatal("attach to absent MSHR succeeded")
	}
	loads, stores := c.TakeWaiters(5)
	if len(loads) != 1 || len(stores) != 1 {
		t.Fatalf("waiters = %d/%d, want 1/1", len(loads), len(stores))
	}
	if c.MSHRFor(5) {
		t.Fatal("MSHR survived TakeWaiters")
	}
}

// TestMSHRFreeKeepsOthers frees a middle slot (the last slot moves into
// the hole) and checks every surviving miss keeps its kind and waiters,
// and that a reused slot starts with no stale waiters.
func TestMSHRFreeKeepsOthers(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	kinds := []coherence.TxnKind{coherence.Read, coherence.RWITM, coherence.Upgrade}
	for i, k := range kinds {
		key := uint64(10 + i)
		c.AllocMSHR(key, k, false)
		for j := 0; j <= i; j++ {
			c.AttachMSHR(key, false, func(config.Cycles) {})
		}
	}
	c.TakeWaiters(11)
	c.AllocMSHR(20, coherence.Read, false) // reuses the freed slot's storage
	for _, tc := range []struct {
		key   uint64
		kind  coherence.TxnKind
		loads int
	}{{10, coherence.Read, 1}, {12, coherence.Upgrade, 3}, {20, coherence.Read, 0}} {
		if c.MSHRKind(tc.key) != tc.kind {
			t.Fatalf("key %d: kind %v, want %v", tc.key, c.MSHRKind(tc.key), tc.kind)
		}
		if loads, _ := c.TakeWaiters(tc.key); len(loads) != tc.loads {
			t.Fatalf("key %d: %d load waiters, want %d", tc.key, len(loads), tc.loads)
		}
	}
	if c.MSHRCount() != 0 {
		t.Fatalf("MSHRCount = %d after draining, want 0", c.MSHRCount())
	}
}

// TestAllocMSHRTakesFirstWaiters: the waiters AllocMSHR is given land
// on the side isStore names, ahead of later attaches, and ReissueMSHR
// changes the kind but keeps them.
func TestAllocMSHRTakesFirstWaiters(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	var order []string
	waiter := func(name string) func(config.Cycles) {
		return func(config.Cycles) { order = append(order, name) }
	}
	c.AllocMSHR(5, coherence.Upgrade, true, waiter("s1"), waiter("s2"))
	c.AllocMSHR(6, coherence.Read, false, waiter("l1"))
	c.AttachMSHR(5, true, waiter("s3"))
	c.AttachMSHR(5, false, waiter("l2"))
	c.ReissueMSHR(5, coherence.RWITM)
	if k := c.MSHRKind(5); k != coherence.RWITM {
		t.Fatalf("kind after ReissueMSHR = %v, want RWITM", k)
	}
	for _, key := range []uint64{5, 6} {
		loads, stores := c.TakeWaiters(key)
		for _, w := range append(append([]func(config.Cycles){}, loads...), stores...) {
			w(0)
		}
	}
	if got := strings.Join(order, ","); got != "l2,s1,s2,s3,l1" {
		t.Fatalf("waiters ran as %s, want l2,s1,s2,s3,l1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ReissueMSHR on an absent MSHR did not panic")
		}
	}()
	c.ReissueMSHR(5, coherence.RWITM)
}

// TestLineReadsAndCommits: a Line handle reads the state Peek sees and
// commits a new one in place; an absent line reads Invalid and panics
// on a commit.
func TestLineReadsAndCommits(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	fill(t, c, 7, coherence.Shared)
	l := c.Line(7)
	if st := l.State(); st != coherence.Shared {
		t.Fatalf("Line(7).State() = %v, want S", st)
	}
	l.SetState(coherence.Modified)
	if st := c.Line(7).State(); st != coherence.Modified {
		t.Fatalf("State after Line.SetState = %v, want M", st)
	}
	absent := c.Line(8)
	if st := absent.State(); st != coherence.Invalid {
		t.Fatalf("absent Line State = %v, want I", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetState on an absent Line did not panic")
		}
	}()
	absent.SetState(coherence.Modified)
}

func TestMSHRDuplicatePanics(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	c.AllocMSHR(5, coherence.Read, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AllocMSHR did not panic")
		}
	}()
	c.AllocMSHR(5, coherence.RWITM, false)
}

func TestMSHRFull(t *testing.T) {
	cfg := config.Default()
	cfg.MSHRsPerL2 = 24 // minimum allowed by Validate for 4x6
	c := New(0, &cfg, wbpolicy.New(&cfg))
	for i := 0; i < 24; i++ {
		c.AllocMSHR(uint64(i), coherence.Read, false)
	}
	if !c.MSHRFull() {
		t.Fatal("MSHRFull = false at capacity")
	}
}

func TestVictimPolicyBaseline(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	if got := c.ProcessVictim(1, coherence.Modified, false, false); got != VictimQueued {
		t.Fatalf("dirty victim = %v, want queued", got)
	}
	if got := c.ProcessVictim(2, coherence.Shared, false, false); got != VictimQueued {
		t.Fatalf("clean victim = %v, want queued (baseline writes back all)", got)
	}
	if got := c.ProcessVictim(0, coherence.Invalid, false, false); got != VictimNone {
		t.Fatalf("invalid victim = %v, want none", got)
	}
	s := c.StatsSnapshot()
	if s.DirtyVictims != 1 || s.CleanVictims != 1 || s.CleanWBQueued != 1 {
		t.Fatalf("victim stats = %+v", s)
	}
	if c.WBQueueLen() != 2 {
		t.Fatalf("WB queue = %d, want 2", c.WBQueueLen())
	}
}

func TestVictimPolicyWBHTAborts(t *testing.T) {
	c, _ := newL2(t, config.WBHT)
	key := uint64(77)
	c.WBHT().Allocate(key)
	// Switch active: the table is consulted and aborts.
	if got := c.ProcessVictim(key, coherence.Shared, true, true); got != VictimAborted {
		t.Fatalf("known-in-L3 clean victim = %v, want aborted", got)
	}
	s := c.StatsSnapshot()
	if s.CleanWBAborted != 1 || s.CleanWBQueued != 0 {
		t.Fatalf("abort stats = %+v", s)
	}
	if c.WBHT().Correct() != 1 {
		t.Fatalf("correct decisions = %d, want 1", c.WBHT().Correct())
	}
	// Switch inactive: same line is written back despite the hint.
	if got := c.ProcessVictim(key, coherence.Shared, false, true); got != VictimQueued {
		t.Fatalf("victim with inactive switch = %v, want queued", got)
	}
	// Dirty lines always go, active switch or not.
	if got := c.ProcessVictim(key+1, coherence.Tagged, true, false); got != VictimQueued {
		t.Fatalf("dirty victim with WBHT = %v, want queued", got)
	}
}

func TestVictimMarksSnarfable(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	key := uint64(9)
	c.SnarfTable().RecordWriteBack(key)
	c.SnarfTable().RecordMiss(key)
	c.ProcessVictim(key, coherence.Shared, false, false)
	e, ok := c.HeadWB()
	if !ok || !e.Snarfable {
		t.Fatalf("entry = %+v (ok=%v), want snarfable", e, ok)
	}
	// A line with no reuse history is not snarfable.
	c.ProcessVictim(key+1, coherence.Shared, false, false)
	e2, ok := c.HeadWB()
	if !ok || e2.Snarfable {
		t.Fatalf("entry2 = %+v, want non-snarfable", e2)
	}
}

func TestWBQueueOrderAndCompletion(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	c.ProcessVictim(1, coherence.Modified, false, false)
	c.ProcessVictim(2, coherence.Shared, false, false)
	e, ok := c.HeadWB()
	if !ok || e.Key != 1 || !e.InFlight {
		t.Fatalf("head = %+v, want key 1 in flight", e)
	}
	// Second issuable entry while first is in flight.
	e2, ok := c.HeadWB()
	if !ok || e2.Key != 2 {
		t.Fatalf("second head = %+v, want key 2", e2)
	}
	if _, ok := c.HeadWB(); ok {
		t.Fatal("third head available from 2-entry queue")
	}
	if e1, cancelled := c.CompleteWB(1); cancelled || e1.Key != 1 {
		t.Fatalf("CompleteWB = %+v, cancelled=%v", e1, cancelled)
	}
	if c.WBQueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1", c.WBQueueLen())
	}
}

func TestWBRetryRequeues(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	c.ProcessVictim(1, coherence.Modified, false, false)
	e, _ := c.HeadWB()
	entry, cancelled := c.CompleteWB(e.Key)
	if cancelled {
		t.Fatal("entry unexpectedly cancelled")
	}
	c.RequeueWB(entry)
	e2, ok := c.HeadWB()
	if !ok || e2.Key != 1 {
		t.Fatal("retried entry not re-issuable")
	}
}

func TestWBQueueFullBlocks(t *testing.T) {
	cfg := config.Default()
	c := New(0, &cfg, wbpolicy.New(&cfg))
	for i := 0; i < cfg.WBQueueEntries; i++ {
		c.ProcessVictim(uint64(i), coherence.Modified, false, false)
	}
	if !c.WBQueueFull() {
		t.Fatal("queue not full after WBQueueEntries victims")
	}
}

func TestWBBufferHitCancelsAndReinstalls(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	c.ProcessVictim(42, coherence.Tagged, false, false)
	if got := c.Probe(42, false, true); got != ProbeWBBufferHit {
		t.Fatalf("probe = %v, want WB buffer hit", got)
	}
	e, ok := c.CancelWB(42)
	if !ok || e.State != coherence.Tagged {
		t.Fatalf("cancel = %+v, %v", e, ok)
	}
	if _, _, ev := c.Reinstall(e); ev {
		t.Fatal("reinstall evicted from an empty cache")
	}
	if st := c.Line(42).State(); st != coherence.Tagged {
		t.Fatalf("reinstalled state = %v, want T", st)
	}
	if c.WBQueueLen() != 0 {
		t.Fatalf("queue len = %d, want 0", c.WBQueueLen())
	}
}

func TestCancelInFlightPoisons(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	c.ProcessVictim(7, coherence.Modified, false, false)
	c.HeadWB() // now in flight
	e, ok := c.CancelWB(7)
	if !ok {
		t.Fatal("cancel of in-flight entry failed")
	}
	_ = e
	if c.WBQueueLen() != 1 {
		t.Fatal("in-flight entry must stay queued until combine")
	}
	if _, cancelled := c.CompleteWB(7); !cancelled {
		t.Fatal("CompleteWB did not report cancellation")
	}
	if c.WBQueueLen() != 0 {
		t.Fatal("entry not removed at completion")
	}
}

func TestSnoopDemandReadTransitions(t *testing.T) {
	cases := []struct {
		before coherence.State
		resp   coherence.Response
		after  coherence.State
	}{
		{coherence.Modified, coherence.RespModifiedIntervention, coherence.Tagged},
		{coherence.Tagged, coherence.RespModifiedIntervention, coherence.Tagged},
		{coherence.Exclusive, coherence.RespSharedIntervention, coherence.Shared},
		{coherence.SharedLast, coherence.RespSharedIntervention, coherence.Shared},
		{coherence.Shared, coherence.RespShared, coherence.Shared},
	}
	for _, tc := range cases {
		c, _ := newL2(t, config.Baseline)
		fill(t, c, 64, tc.before)
		resp := c.SnoopDemand(64, coherence.Read)
		if resp != tc.resp {
			t.Errorf("Read snoop on %v: resp = %v, want %v", tc.before, resp, tc.resp)
		}
		if st := c.Line(64).State(); st != tc.after {
			t.Errorf("Read snoop on %v: state = %v, want %v", tc.before, st, tc.after)
		}
	}
}

func TestSnoopDemandRWITMInvalidates(t *testing.T) {
	for _, st := range []coherence.State{
		coherence.Shared, coherence.SharedLast, coherence.Exclusive,
		coherence.Modified, coherence.Tagged,
	} {
		c, _ := newL2(t, config.Baseline)
		fill(t, c, 64, st)
		resp := c.SnoopDemand(64, coherence.RWITM)
		if got := c.Line(64).State(); got != coherence.Invalid {
			t.Errorf("RWITM snoop on %v left state %v", st, got)
		}
		wantSupply := st.CanIntervene()
		gotSupply := resp == coherence.RespModifiedIntervention || resp == coherence.RespSharedIntervention
		if wantSupply != gotSupply {
			t.Errorf("RWITM snoop on %v: resp = %v", st, resp)
		}
	}
}

func TestSnoopDemandUpgradeInvalidates(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	fill(t, c, 64, coherence.Shared)
	if resp := c.SnoopDemand(64, coherence.Upgrade); resp != coherence.RespShared {
		t.Fatalf("upgrade snoop resp = %v", resp)
	}
	if c.Line(64).State() != coherence.Invalid {
		t.Fatal("upgrade snoop did not invalidate")
	}
}

func TestSnoopDemandMissIsNull(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	if resp := c.SnoopDemand(64, coherence.Read); resp != coherence.RespNull {
		t.Fatalf("snoop miss = %v, want null", resp)
	}
}

func TestSnoopWBSquashWhenPresent(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	fill(t, c, 64, coherence.Shared)
	if resp := c.SnoopWB(64, coherence.CleanWB, true); resp != coherence.RespWBSquash {
		t.Fatalf("WB snoop with valid copy = %v, want squash", resp)
	}
}

func TestSnoopWBAcceptsIntoInvalidWay(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	if resp := c.SnoopWB(64, coherence.CleanWB, true); resp != coherence.RespSnarfAccept {
		t.Fatalf("snarfable WB = %v, want accept", resp)
	}
	if resp := c.SnoopWB(65, coherence.CleanWB, false); resp != coherence.RespNull {
		t.Fatalf("non-snarfable WB = %v, want null", resp)
	}
}

func TestSnoopWBDeclinesOnMSHR(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	c.AllocMSHR(64, coherence.Read, false)
	if resp := c.SnoopWB(64, coherence.CleanWB, true); resp != coherence.RespNull {
		t.Fatalf("WB snoop with MSHR in flight = %v, want decline", resp)
	}
	if c.StatsSnapshot().SnarfDeclinedMSHR != 1 {
		t.Fatal("decline not counted")
	}
}

func TestSnoopWBVictimizesSharedButNotExclusive(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Snarf)
	// Shrink to 1-way slices... keep geometry but fill one set fully.
	c := New(0, &cfg, wbpolicy.New(&cfg))
	// Fill set 0 of slice 0 with E/M lines: no shared victims available.
	sets := cfg.L2Lines() / cfg.L2Slices / cfg.L2Assoc
	for i := 0; i < cfg.L2Assoc; i++ {
		key := uint64(i*sets) << 2 // slice 0, set 0, distinct tags
		st := coherence.Exclusive
		if i%2 == 1 {
			st = coherence.Modified
		}
		fill(t, c, key, st)
	}
	offKey := uint64(cfg.L2Assoc*sets) << 2
	if resp := c.SnoopWB(offKey, coherence.CleanWB, true); resp != coherence.RespNull {
		t.Fatalf("WB into E/M-full set = %v, want decline", resp)
	}
	if c.StatsSnapshot().SnarfDeclinedFull != 1 {
		t.Fatal("decline-full not counted")
	}
	// Downgrade one way to Shared: now it volunteers.
	c.Line(0).SetState(coherence.Shared)
	if resp := c.SnoopWB(offKey, coherence.CleanWB, true); resp != coherence.RespSnarfAccept {
		t.Fatalf("WB with shared victim available = %v, want accept", resp)
	}
}

func TestSnoopWBInvalidOnlyPolicy(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Snarf)
	cfg.Snarf.VictimizeShared = false
	c := New(0, &cfg, wbpolicy.New(&cfg))
	sets := cfg.L2Lines() / cfg.L2Slices / cfg.L2Assoc
	for i := 0; i < cfg.L2Assoc; i++ {
		fill(t, c, uint64(i*sets)<<2, coherence.Shared)
	}
	offKey := uint64(cfg.L2Assoc*sets) << 2
	if resp := c.SnoopWB(offKey, coherence.CleanWB, true); resp != coherence.RespNull {
		t.Fatalf("invalid-only policy accepted into shared-full set: %v", resp)
	}
}

func TestAcceptSnarfInstallsMarked(t *testing.T) {
	c, cfg := newL2(t, config.Snarf)
	e := WBEntry{Key: 64, Kind: coherence.CleanWB, State: coherence.Exclusive}
	if _, _, ok := c.AcceptSnarf(e); !ok {
		t.Fatal("AcceptSnarf failed on empty cache")
	}
	if st := c.Line(64).State(); st != coherence.Exclusive {
		t.Fatalf("snarfed state = %v, want E", st)
	}
	// Local use is scored once.
	c.Probe(64, false, true)
	c.Probe(64, false, true)
	s := c.StatsSnapshot()
	if s.SnarfInstalls != 1 || s.SnarfedUsedLocally != 1 {
		t.Fatalf("snarf stats = %+v", s)
	}
	_ = cfg
}

func TestSnarfedInterventionScoredOnce(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	c.AcceptSnarf(WBEntry{Key: 64, Kind: coherence.DirtyWB, State: coherence.Modified})
	c.SnoopDemand(64, coherence.Read) // M -> T, supplies
	c.SnoopDemand(64, coherence.Read) // T supplies again
	s := c.StatsSnapshot()
	if s.Interventions != 2 || s.SnarfedIntervention != 1 {
		t.Fatalf("intervention stats = %+v", s)
	}
}

func TestTakeWBObligation(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	fill(t, c, 64, coherence.Shared)
	c.TakeWBObligation(64)
	if st := c.Line(64).State(); st != coherence.Tagged {
		t.Fatalf("state = %v, want T", st)
	}
}

func TestTakeWBObligationPanicsWithoutCopy(t *testing.T) {
	c, _ := newL2(t, config.Snarf)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without a copy")
		}
	}()
	c.TakeWBObligation(64)
}

func TestInstallFillEvictionReconstructsKey(t *testing.T) {
	cfg := config.Default()
	c := New(0, &cfg, wbpolicy.New(&cfg))
	sets := cfg.L2Lines() / cfg.L2Slices / cfg.L2Assoc
	// Fill set 3 of slice 2 beyond capacity.
	mkKey := func(tag int) uint64 { return (uint64(tag*sets)+3)<<2 | 2 }
	for i := 0; i < cfg.L2Assoc; i++ {
		fill(t, c, mkKey(i), coherence.Shared)
	}
	vKey, vState, ev := c.InstallFill(mkKey(cfg.L2Assoc), coherence.Shared)
	if !ev {
		t.Fatal("no eviction from full set")
	}
	if vKey != mkKey(0) {
		t.Fatalf("victim key = %#x, want %#x", vKey, mkKey(0))
	}
	if vState != coherence.Shared {
		t.Fatalf("victim state = %v", vState)
	}
}

func TestReservePortSerializesSlice(t *testing.T) {
	c, cfg := newL2(t, config.Baseline)
	a := c.ReservePort(0, 10) // slice 0
	b := c.ReservePort(4, 10) // key 4 -> slice 0 too (4 & 3 == 0)
	d := c.ReservePort(1, 10) // slice 1
	if a != 10 || b != 10+cfg.L2PortOccupancy || d != 10 {
		t.Fatalf("starts = %d/%d/%d", a, b, d)
	}
}

func TestHitRate(t *testing.T) {
	c, _ := newL2(t, config.Baseline)
	fill(t, c, 0, coherence.Exclusive)
	c.Probe(0, false, true)
	c.Probe(64, false, true)
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
}

func TestMechanismTableWiring(t *testing.T) {
	base, _ := newL2(t, config.Baseline)
	if base.WBHT() != nil || base.SnarfTable() != nil {
		t.Fatal("baseline L2 should have no tables")
	}
	w, _ := newL2(t, config.WBHT)
	if w.WBHT() == nil || w.SnarfTable() != nil {
		t.Fatal("WBHT mechanism wiring wrong")
	}
	s, _ := newL2(t, config.Snarf)
	if s.WBHT() != nil || s.SnarfTable() == nil {
		t.Fatal("snarf mechanism wiring wrong")
	}
	comb, cfg := newL2(t, config.Combined)
	if comb.WBHT() == nil || comb.SnarfTable() == nil {
		t.Fatal("combined mechanism wiring wrong")
	}
	if comb.WBHT().Entries() != 16384 || comb.SnarfTable().Entries() != 16384 {
		t.Fatalf("combined tables = %d/%d, want halved",
			comb.WBHT().Entries(), comb.SnarfTable().Entries())
	}
	_ = cfg
}
