package system

import (
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

// mkTrace builds a trace over the chip's 16 threads from explicit
// records.
func mkTrace(recs ...trace.Record) *trace.Trace {
	return &trace.Trace{Name: "test", Threads: 16, Records: recs}
}

// lineAddr turns an L2 (slice, set, tag) coordinate into a byte address:
// key = (tag*sets + set) << sliceBits | slice, addr = key * 128.
func lineAddr(cfg *config.Config, slice, set, tag int) uint64 {
	sets := cfg.L2Lines() / cfg.L2Slices / cfg.L2Assoc
	key := uint64(tag*sets+set)<<2 | uint64(slice)
	return key * uint64(cfg.LineBytes)
}

// newSystem builds a system over an in-memory trace.
func newSystem(cfg config.Config, tr *trace.Trace) (*System, error) {
	src, err := trace.NewMemSource(tr)
	if err != nil {
		return nil, err
	}
	return NewStream(cfg, src)
}

func run(t *testing.T, cfg config.Config, tr *trace.Trace) (*System, *Results) {
	t.Helper()
	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Run()
}

// TestThreadFeedsItsL2: on an 8-L2 chip, two threads per L2, every
// reference of chip thread t probes L2 t/2 and no other.
func TestThreadFeedsItsL2(t *testing.T) {
	cfg := config.Default()
	cfg.CoresPerL2 = 1
	if cfg.NumL2() != 8 || cfg.ThreadsPerL2() != 2 {
		t.Fatalf("chip has %d L2s of %d threads, want 8 of 2", cfg.NumL2(), cfg.ThreadsPerL2())
	}
	const refs = 5
	for tid := 0; tid < cfg.Threads(); tid++ {
		recs := make([]trace.Record, refs)
		for i := range recs {
			recs[i] = trace.Record{Thread: uint16(tid), Op: trace.Load, Addr: uint64(i+1) << 12}
		}
		s, _ := run(t, cfg, mkTrace(recs...))
		for idx, c := range s.l2s {
			want := uint64(0)
			if idx == tid/2 {
				want = refs
			}
			if got := c.StatsSnapshot().Accesses; got != want {
				t.Errorf("thread %d: L2 %d saw %d accesses, want %d", tid, idx, got, want)
			}
		}
	}
}

func TestMemoryLatencyMatchesTable3(t *testing.T) {
	cfg := config.Default()
	_, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000},
	))
	if r.Cycles != uint64(cfg.MemLatency()) {
		t.Fatalf("single cold load = %d cycles, want %d", r.Cycles, cfg.MemLatency())
	}
	if r.FillsFromMem != 1 || r.FillsFromL3 != 0 || r.FillsFromPeer != 0 {
		t.Fatalf("fills = %d/%d/%d, want memory only",
			r.FillsFromPeer, r.FillsFromL3, r.FillsFromMem)
	}
}

func TestL2HitLatencyMatchesTable3(t *testing.T) {
	cfg := config.Default()
	cfg.MaxOutstanding = 1
	_, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000},
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000},
	))
	want := uint64(cfg.MemLatency() + cfg.L2HitLatency())
	if r.Cycles != want {
		t.Fatalf("miss+hit = %d cycles, want %d", r.Cycles, want)
	}
	if r.L2.Hits != 1 {
		t.Fatalf("L2 hits = %d, want 1", r.L2.Hits)
	}
}

func TestPeerInterventionLatencyMatchesTable3(t *testing.T) {
	cfg := config.Default()
	// Thread 0 -> L2 0 warms the line; thread 4 -> L2 1 reads it later.
	_, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000},
		trace.Record{Thread: 4, Op: trace.Load, Addr: 0x10000, Gap: 1000},
	))
	want := uint64(1000 + cfg.L2ToL2Latency())
	if r.Cycles != want {
		t.Fatalf("intervention completes at %d, want %d", r.Cycles, want)
	}
	if r.FillsFromPeer != 1 {
		t.Fatalf("peer fills = %d, want 1", r.FillsFromPeer)
	}
}

func TestInterventionStateTransitions(t *testing.T) {
	cfg := config.Default()
	s, _ := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000},
		trace.Record{Thread: 4, Op: trace.Load, Addr: 0x10000, Gap: 1000},
	))
	key := uint64(0x10000 / cfg.LineBytes)
	if st := s.l2s[0].Line(key).State(); st != coherence.Shared {
		t.Fatalf("supplier state = %v, want S (downgraded from E)", st)
	}
	if st := s.l2s[1].Line(key).State(); st != coherence.SharedLast {
		t.Fatalf("requester state = %v, want SL (latest reader)", st)
	}
}

func TestDirtyInterventionKeepsTaggedSupplier(t *testing.T) {
	cfg := config.Default()
	s, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Store, Addr: 0x10000},
		trace.Record{Thread: 4, Op: trace.Load, Addr: 0x10000, Gap: 1000},
	))
	key := uint64(0x10000 / cfg.LineBytes)
	if st := s.l2s[0].Line(key).State(); st != coherence.Tagged {
		t.Fatalf("dirty supplier state = %v, want T", st)
	}
	if st := s.l2s[1].Line(key).State(); st != coherence.Shared {
		t.Fatalf("requester of dirty line = %v, want S", st)
	}
	if r.FillsFromPeer != 1 {
		t.Fatalf("peer fills = %d, want 1", r.FillsFromPeer)
	}
}

func TestStoreMissInstallsModified(t *testing.T) {
	cfg := config.Default()
	s, _ := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Store, Addr: 0x10000},
	))
	key := uint64(0x10000 / cfg.LineBytes)
	if st := s.l2s[0].Line(key).State(); st != coherence.Modified {
		t.Fatalf("state after store miss = %v, want M", st)
	}
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	cfg := config.Default()
	s, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000},
		trace.Record{Thread: 4, Op: trace.Load, Addr: 0x10000, Gap: 1000},
		trace.Record{Thread: 0, Op: trace.Store, Addr: 0x10000, Gap: 2000},
	))
	key := uint64(0x10000 / cfg.LineBytes)
	if st := s.l2s[0].Line(key).State(); st != coherence.Modified {
		t.Fatalf("claimer state = %v, want M", st)
	}
	if st := s.l2s[1].Line(key).State(); st != coherence.Invalid {
		t.Fatalf("sharer state = %v, want I", st)
	}
	if r.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", r.Upgrades)
	}
	// The upgrade completes at the combined response: gap 2000 is from
	// thread 0's first issue (cycle 0), so the store issues at 2000 and
	// completes at 2000 + 44.
	want := uint64(2000 + cfg.CombinedResponseLatency())
	if r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
}

// evictionTrace stores or loads assoc+1 lines of the same L2 set from
// one thread, forcing one eviction.
func evictionTrace(cfg *config.Config, op trace.Op, extraGap uint32) *trace.Trace {
	var recs []trace.Record
	for i := 0; i <= cfg.L2Assoc; i++ {
		recs = append(recs, trace.Record{
			Thread: 0, Op: op, Addr: lineAddr(cfg, 0, 0, i), Gap: 500,
		})
	}
	return mkTrace(recs...)
}

func TestDirtyEvictionReachesL3(t *testing.T) {
	cfg := config.Default()
	s, r := run(t, cfg, evictionTrace(&cfg, trace.Store, 0))
	if r.L2.DirtyVictims != 1 {
		t.Fatalf("dirty victims = %d, want 1", r.L2.DirtyVictims)
	}
	if r.WBToL3 != 1 {
		t.Fatalf("WBs to L3 = %d, want 1", r.WBToL3)
	}
	key := lineAddr(&cfg, 0, 0, 0) / uint64(cfg.LineBytes)
	if !s.l3.Contains(key) {
		t.Fatal("evicted dirty line not in L3 victim cache")
	}
}

func TestCleanEvictionWrittenBackBaseline(t *testing.T) {
	cfg := config.Default()
	s, r := run(t, cfg, evictionTrace(&cfg, trace.Load, 0))
	if r.L2.CleanVictims != 1 || r.L2.CleanWBQueued != 1 {
		t.Fatalf("clean victims/queued = %d/%d, want 1/1",
			r.L2.CleanVictims, r.L2.CleanWBQueued)
	}
	key := lineAddr(&cfg, 0, 0, 0) / uint64(cfg.LineBytes)
	if !s.l3.Contains(key) {
		t.Fatal("clean victim not written back to L3 (baseline policy)")
	}
}

func TestVictimReloadHitsL3(t *testing.T) {
	cfg := config.Default()
	tr := evictionTrace(&cfg, trace.Load, 0)
	tr.Records = append(tr.Records, trace.Record{
		Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, 0), Gap: 5000,
	})
	_, r := run(t, cfg, tr)
	if r.FillsFromL3 != 1 {
		t.Fatalf("L3 fills = %d, want 1 (victim cache hit)", r.FillsFromL3)
	}
}

func TestRedundantCleanWBSquashedByL3(t *testing.T) {
	cfg := config.Default()
	// Evict line 0 (clean WB to L3), reload it, evict it again: the
	// second write back must be squashed (Table 1's redundancy).
	var recs []trace.Record
	for round := 0; round < 2; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 2000,
			})
		}
	}
	_, r := run(t, cfg, mkTrace(recs...))
	if r.WBSquashedL3 == 0 {
		t.Fatal("no clean write back squashed despite L3 residency")
	}
	if r.L3CleanWBAlready == 0 {
		t.Fatal("Table 1 redundancy counter still zero")
	}
}

func TestWBHTLearnsAndAborts(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false // always consult
	// Three eviction rounds of the same set: round 1 fills the L3,
	// round 2's write backs are squashed and allocate WBHT entries,
	// round 3's evictions are aborted before reaching the bus.
	var recs []trace.Record
	for round := 0; round < 3; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 2000,
			})
		}
	}
	_, r := run(t, cfg, mkTrace(recs...))
	if r.WBHT.Allocations == 0 {
		t.Fatal("WBHT never allocated")
	}
	if r.L2.CleanWBAborted == 0 {
		t.Fatal("WBHT never aborted a clean write back")
	}
	if r.WBHT.Correct == 0 {
		t.Fatal("no WBHT decisions scored")
	}
}

func TestWBHTSwitchKeepsTableDormantWithoutRetries(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	// Switch enabled (default): with this tiny workload there are no
	// retries, so the WBHT must never be consulted for decisions.
	var recs []trace.Record
	for round := 0; round < 3; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 2000,
			})
		}
	}
	_, r := run(t, cfg, mkTrace(recs...))
	if r.L2.CleanWBAborted != 0 {
		t.Fatalf("aborts = %d with dormant switch, want 0", r.L2.CleanWBAborted)
	}
	if r.WBHT.Allocations == 0 {
		t.Fatal("table must be kept up to date even while dormant")
	}
}

func TestSnarfEndToEnd(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Snarf)
	// Build reuse history for line 0: evict (WB recorded), miss again
	// (use bit set), evict again (snarfable -> peer absorbs), then a
	// third miss is served by the snarfing peer via intervention.
	var recs []trace.Record
	for round := 0; round < 3; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 3000,
			})
		}
	}
	_, r := run(t, cfg, mkTrace(recs...))
	if r.Snarf.TableRecorded == 0 || r.Snarf.TableReuse == 0 {
		t.Fatalf("snarf table never learned: %+v", r.Snarf)
	}
	if r.WBSnarfed == 0 {
		t.Fatal("no write back was snarfed")
	}
	if r.FillsFromPeer == 0 {
		t.Fatal("snarfed line never supplied an intervention")
	}
	if r.Snarf.Interventions == 0 {
		t.Fatal("snarfed-line intervention not scored")
	}
}

func TestReuseTrackerMatchesWorkload(t *testing.T) {
	cfg := config.Default()
	// Line 0 is evicted then re-missed: one reused write back.
	var recs []trace.Record
	for i := 0; i <= cfg.L2Assoc; i++ {
		recs = append(recs, trace.Record{
			Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 2000,
		})
	}
	recs = append(recs, trace.Record{
		Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, 0), Gap: 5000,
	})
	_, r := run(t, cfg, mkTrace(recs...))
	// Two write backs: line 0's eviction, plus the victim displaced by
	// reloading line 0. Only line 0's was reused.
	if r.Reuse.Attempted != 2 || r.Reuse.ReusedAttempt != 1 {
		t.Fatalf("reuse stats = %+v, want 2 attempted / 1 reused", r.Reuse)
	}
	if r.Reuse.PctTotalReused() != 50 {
		t.Fatalf("PctTotalReused = %v, want 50", r.Reuse.PctTotalReused())
	}
}

func TestConservationAndDeterminism(t *testing.T) {
	cfg := config.Default()
	var recs []trace.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, trace.Record{
			Thread: uint16(i % 16),
			Op:     trace.Op(i % 2), // alternate loads and stores
			Addr:   uint64((i * 7919) % 4096 * 128),
			Gap:    uint32(i % 17),
		})
	}
	_, r1 := run(t, cfg, mkTrace(recs...))
	_, r2 := run(t, cfg, mkTrace(recs...))
	if r1.RefsIssued != 200 || r1.RefsCompleted != 200 {
		t.Fatalf("conservation broken: %d issued, %d completed",
			r1.RefsIssued, r1.RefsCompleted)
	}
	if r1.Cycles != r2.Cycles || r1.WBRequests != r2.WBRequests {
		t.Fatalf("nondeterminism: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

// TestCoherenceInvariants drives a shared-hot-set workload across all
// threads and checks single-owner invariants for every touched line.
func TestCoherenceInvariants(t *testing.T) {
	cfg := config.Default()
	const lines = 64
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Record{
			Thread: uint16((i * 5) % 16),
			Op:     trace.Op((i / 3) % 2),
			Addr:   uint64((i*37)%lines) * 128,
			Gap:    uint32(i % 5),
		})
	}
	s, r := run(t, cfg, mkTrace(recs...))
	if r.RefsCompleted != 2000 {
		t.Fatalf("completed %d of 2000", r.RefsCompleted)
	}
	for key := uint64(0); key < lines; key++ {
		var m, e, tg, sl, sh int
		for _, c := range s.l2s {
			switch c.Line(key).State() {
			case coherence.Modified:
				m++
			case coherence.Exclusive:
				e++
			case coherence.Tagged:
				tg++
			case coherence.SharedLast:
				sl++
			case coherence.Shared:
				sh++
			}
		}
		if m+e > 0 && (m+e > 1 || tg+sl+sh > 0) {
			t.Fatalf("line %d: exclusive violation m=%d e=%d t=%d sl=%d s=%d",
				key, m, e, tg, sl, sh)
		}
		if tg > 1 || sl > 1 {
			t.Fatalf("line %d: duplicate supplier t=%d sl=%d", key, tg, sl)
		}
		if tg == 1 && sl > 0 {
			t.Fatalf("line %d: both T and SL present", key)
		}
	}
}

func TestMSHRCoalescing(t *testing.T) {
	cfg := config.Default()
	// Two threads on the same L2 miss the same line back to back: one
	// bus transaction, one memory fill, two completions.
	_, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x40000},
		trace.Record{Thread: 1, Op: trace.Load, Addr: 0x40000, Gap: 5},
	))
	if r.FillsFromMem != 1 {
		t.Fatalf("memory fills = %d, want 1 (coalesced)", r.FillsFromMem)
	}
	if r.L2.MSHRAttach != 1 {
		t.Fatalf("MSHR attaches = %d, want 1", r.L2.MSHRAttach)
	}
	if r.RefsCompleted != 2 {
		t.Fatalf("completed = %d, want 2", r.RefsCompleted)
	}
}

func TestStoreCoalescedOntoReadTriggersUpgrade(t *testing.T) {
	cfg := config.Default()
	// Thread 4 shares the line first so the read fill lands SL (not E);
	// the coalesced store then needs a real upgrade.
	_, r := run(t, cfg, mkTrace(
		trace.Record{Thread: 4, Op: trace.Load, Addr: 0x40000},
		trace.Record{Thread: 0, Op: trace.Load, Addr: 0x40000, Gap: 1000},
		trace.Record{Thread: 1, Op: trace.Store, Addr: 0x40000, Gap: 1010},
	))
	if r.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", r.Upgrades)
	}
	if r.RefsCompleted != 3 {
		t.Fatalf("completed = %d", r.RefsCompleted)
	}
}

func TestWBBufferHitRecoversLine(t *testing.T) {
	cfg := config.Default()
	// Evict a dirty line and touch it again immediately: the access must
	// hit the write-back buffer, not go to memory.
	var recs []trace.Record
	for i := 0; i <= cfg.L2Assoc; i++ {
		recs = append(recs, trace.Record{
			Thread: 0, Op: trace.Store, Addr: lineAddr(&cfg, 0, 0, i), Gap: 0,
		})
	}
	recs = append(recs, trace.Record{
		Thread: 1, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, 0), Gap: 0,
	})
	_, r := run(t, cfg, mkTrace(recs...))
	// Either the WB escaped first (load fills from L3) or it was caught
	// in the buffer; both must complete all references.
	if r.RefsCompleted != uint64(len(recs)) {
		t.Fatalf("completed %d of %d", r.RefsCompleted, len(recs))
	}
	if r.L2.WBBufferHits == 0 && r.FillsFromL3 == 0 && r.FillsFromMem == 0 {
		t.Fatal("evicted line neither recovered nor refetched")
	}
}

func TestTraceThreadOverflowRejected(t *testing.T) {
	cfg := config.Default()
	tr := &trace.Trace{Name: "big", Threads: 64, Records: nil}
	if _, err := newSystem(cfg, tr); err == nil {
		t.Fatal("trace with more threads than the chip accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 0
	if _, err := newSystem(cfg, mkTrace()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestOutstandingLimitThrottles(t *testing.T) {
	// The same miss-heavy trace must run strictly slower with 1
	// outstanding miss than with 6 (the Figure 2 x-axis).
	mk := func() *trace.Trace {
		var recs []trace.Record
		for i := 0; i < 300; i++ {
			recs = append(recs, trace.Record{
				Thread: uint16(i % 16),
				Op:     trace.Load,
				Addr:   uint64(i*997) % (1 << 20) * 128,
				Gap:    1,
			})
		}
		return mkTrace(recs...)
	}
	cfg1 := config.Default()
	cfg1.MaxOutstanding = 1
	_, r1 := run(t, cfg1, mk())
	cfg6 := config.Default()
	cfg6.MaxOutstanding = 6
	_, r6 := run(t, cfg6, mk())
	if r6.Cycles >= r1.Cycles {
		t.Fatalf("6 outstanding (%d cycles) not faster than 1 (%d cycles)",
			r6.Cycles, r1.Cycles)
	}
}
