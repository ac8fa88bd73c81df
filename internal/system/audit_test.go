package system

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cmpcache/internal/audit"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/metrics"
	"cmpcache/internal/workload"
)

// TestAuditorObservationOnly asserts the auditor's zero-perturbation
// contract, mirroring TestProbeObservationOnly: a run with the shadow
// checker attached (alone, and composed with a metrics probe) produces
// bit-identical results to the same run without one.
func TestAuditorObservationOnly(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Combined)
	tr := wbStormTrace(&cfg, 24)

	_, plain := run(t, cfg, tr)

	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	a := audit.New(audit.Config{Differential: true, SweepEvery: 512})
	s.Attach(Attachments{Auditor: a})
	audited := s.Run()
	if !a.Ok() {
		t.Fatalf("auditor on a healthy run: %s", a.Summary())
	}
	if a.Sweeps() == 0 {
		t.Fatal("auditor never swept; the tick hook is not wired")
	}
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(audited)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("attaching the auditor perturbed the simulation")
	}

	// Probe and auditor both ride the event loop's clock; composing
	// them must still perturb nothing but the Metrics series.
	s2, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	a2 := audit.New(audit.Config{Differential: true, SweepEvery: 512})
	s2.Attach(Attachments{Auditor: a2})
	probe := metrics.NewProbe(metrics.Config{Interval: 500})
	s2.Attach(Attachments{Probe: probe})
	both := s2.Run()
	if !a2.Ok() {
		t.Fatalf("auditor composed with probe: %s", a2.Summary())
	}
	if both.Metrics == nil || len(both.Metrics.Samples) == 0 {
		t.Fatal("probed run carries no metrics series")
	}
	stripped := *both
	stripped.Metrics = nil
	got2, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got2) {
		t.Error("auditor+probe run diverged from the plain run")
	}
}

// TestAuditorCatchesInjectedDirtyLoss deliberately discards a queued
// dirty write back mid-run — the fault class the conservation ledger
// exists for — and requires the auditor to flag the exact line within
// the run's final drain check.
func TestAuditorCatchesInjectedDirtyLoss(t *testing.T) {
	cfg := config.Default()
	cfg.L3QueueEntries = 1 // starve the L3 queue so dirty entries linger
	tr := wbStormTrace(&cfg, 32)

	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	a := audit.New(audit.Config{SweepEvery: 256})
	s.Attach(Attachments{Auditor: a})

	var lostKey uint64
	injected := false
	attempts := 0
	var hunt func()
	hunt = func() {
		if injected || attempts > 5000 {
			return
		}
		attempts++
		for _, c := range s.l2s {
			var k uint64
			found := false
			c.ForEachWB(func(e l2.WBEntry) {
				if !found && e.Kind == coherence.DirtyWB && !e.InFlight && !e.Cancelled {
					k, found = e.Key, true
				}
			})
			if found {
				c.CancelWB(k) // drop the only copy of the modified data
				lostKey, injected = k, true
				return
			}
		}
		s.engine.At(s.engine.Now()+100, hunt)
	}
	s.engine.At(1, hunt)

	s.Run()
	if !injected {
		t.Fatal("scenario never staged a quiescent dirty write back to discard")
	}
	if a.Ok() {
		t.Fatal("auditor reported a clean run despite a discarded dirty line")
	}
	for _, v := range a.Violations() {
		if v.Kind == "dirty-lost" && v.Key == lostKey {
			return
		}
	}
	t.Fatalf("no dirty-lost violation for key %#x; got: %s", lostKey, a.Summary())
}

// TestStaleUpgradeDoesNotDestroyDirtyCopy is the regression test for
// the stale-claim gate in combineDemand. Bus ordering permits this
// window: X's RWITM invalidates claimer B, then Y's Read demotes X to
// Tagged, and only then does B's (now stale) Upgrade reach its combine.
// Before the gate, the stale claim snooped everyone and invalidated the
// only dirty copy (X's Tagged line) plus the sharer — the line's data
// was lost. The claim must instead restart as a full RWITM without
// snooping anyone.
func TestStaleUpgradeDoesNotDestroyDirtyCopy(t *testing.T) {
	cfg := config.Default()
	s, err := newSystem(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	K := key(&cfg, 0, 0, 7)
	B, X, Y := s.l2s[1], s.l2s[2], s.l2s[3]
	X.InstallFill(K, coherence.Tagged) // dirty supplier, demoted by a Read
	Y.InstallFill(K, coherence.Shared)
	// B's copy was invalidated between its Upgrade's issue and combine.
	B.AllocMSHR(K, coherence.Upgrade, false)
	rec := observeHooks(s)

	s.combineDemand(B, K, coherence.Upgrade)

	if s.upgradeRestarts != 1 {
		t.Fatalf("upgradeRestarts = %d, want 1", s.upgradeRestarts)
	}
	if st := X.Line(K).State(); st != coherence.Tagged {
		t.Fatalf("stale upgrade changed the dirty supplier: %v, want T", st)
	}
	if st := Y.Line(K).State(); st != coherence.Shared {
		t.Fatalf("stale upgrade changed the sharer: %v, want S", st)
	}

	s.engine.Run() // the restarted RWITM combines and fills
	if st := B.Line(K).State(); st != coherence.Modified {
		t.Fatalf("restarted claim ended in %v, want M", st)
	}
	if st := X.Line(K).State(); st != coherence.Invalid {
		t.Fatalf("RWITM left the old supplier in %v, want I", st)
	}
	if s.fillsFromPeer != 1 {
		t.Fatalf("fillsFromPeer = %d, want 1 (T supplier intervention)", s.fillsFromPeer)
	}
	// The observers saw the stale claim restart, and no committed
	// upgrade: the RWITM that replaced it commits at its fill.
	want := []hookCall{{L2: 1, Key: K, Arg: "restarted"}}
	if got := rec.calls["Upgrade"]; !slices.Equal(got, want) {
		t.Errorf("Upgrade calls %+v, want %+v", got, want)
	}
}

// TestRWITMCancelsStaleQueuedWB: the castout buffer snoops demand
// transactions like the tag array does. An invalidating RWITM must
// cancel a queued clean entry — otherwise a later reinstall or snarf
// resurrects the stale copy alongside the new owner.
func TestRWITMCancelsStaleQueuedWB(t *testing.T) {
	cfg := config.Default()
	s, err := newSystem(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	K := key(&cfg, 0, 0, 5)
	A, B := s.l2s[0], s.l2s[1]
	if got := A.ProcessVictim(K, coherence.Exclusive, false, false); got != l2.VictimQueued {
		t.Fatalf("ProcessVictim = %v, want queued", got)
	}

	B.AllocMSHR(K, coherence.RWITM, false)
	s.combineDemand(B, K, coherence.RWITM)

	if n := A.WBQueueLen(); n != 0 {
		t.Fatalf("stale queue entry survived the RWITM (len %d)", n)
	}
	if st := B.Line(K).State(); st != coherence.Modified {
		t.Fatalf("RWITM installed %v, want M", st)
	}
	if s.fillsFromPeer != 1 {
		t.Fatalf("fillsFromPeer = %d, want 1 (queued E entry supplies)", s.fillsFromPeer)
	}
	s.engine.Run()
	if got := A.Probe(K, false, false); got != l2.ProbeMiss {
		t.Fatalf("cancelled entry still reachable: probe = %v", got)
	}
}

// TestUpgradeCancelsStaleQueuedWB: a committed ownership claim
// invalidates peer copies wherever they live, including a clean entry
// parked in a peer's castout buffer.
func TestUpgradeCancelsStaleQueuedWB(t *testing.T) {
	cfg := config.Default()
	s, err := newSystem(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	K := key(&cfg, 0, 0, 6)
	A, B := s.l2s[0], s.l2s[1]
	A.ProcessVictim(K, coherence.SharedLast, false, false)
	B.InstallFill(K, coherence.Shared)

	B.AllocMSHR(K, coherence.Upgrade, false)
	s.combineDemand(B, K, coherence.Upgrade)

	if s.upgrades != 1 || s.upgradeRestarts != 0 {
		t.Fatalf("upgrades = %d restarts = %d, want 1/0", s.upgrades, s.upgradeRestarts)
	}
	if n := A.WBQueueLen(); n != 0 {
		t.Fatalf("stale queue entry survived the upgrade (len %d)", n)
	}
	if st := B.Line(K).State(); st != coherence.Modified {
		t.Fatalf("upgrade left claimer in %v, want M", st)
	}
}

// TestReadSnoopsWBQueueAndDemotes: a queued entry answers a peer Read
// exactly like an array line — a dirty entry supplies and demotes to
// Tagged (reader installs Shared), a clean supplier entry demotes to
// plain Shared and the reader becomes the new SharedLast.
func TestReadSnoopsWBQueueAndDemotes(t *testing.T) {
	cfg := config.Default()
	s, err := newSystem(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	A, B := s.l2s[0], s.l2s[1]
	K1 := key(&cfg, 0, 0, 21)
	K2 := key(&cfg, 0, 1, 22)
	A.ProcessVictim(K1, coherence.Modified, false, false)
	A.ProcessVictim(K2, coherence.SharedLast, false, false)

	B.AllocMSHR(K1, coherence.Read, false)
	s.combineDemand(B, K1, coherence.Read)
	B.AllocMSHR(K2, coherence.Read, false)
	s.combineDemand(B, K2, coherence.Read)

	if st := B.Line(K1).State(); st != coherence.Shared {
		t.Fatalf("read of a queued M entry installed %v, want S", st)
	}
	if st := B.Line(K2).State(); st != coherence.SharedLast {
		t.Fatalf("read of a queued SL entry installed %v, want SL", st)
	}
	states := map[uint64]coherence.State{}
	kinds := map[uint64]coherence.TxnKind{}
	A.ForEachWB(func(e l2.WBEntry) { states[e.Key], kinds[e.Key] = e.State, e.Kind })
	if states[K1] != coherence.Tagged || kinds[K1] != coherence.DirtyWB {
		t.Fatalf("dirty entry after peer read: %v/%v, want T/DirtyWB", states[K1], kinds[K1])
	}
	if states[K2] != coherence.Shared {
		t.Fatalf("supplier entry after peer read: %v, want S", states[K2])
	}
	if s.fillsFromPeer != 2 {
		t.Fatalf("fillsFromPeer = %d, want 2", s.fillsFromPeer)
	}
	s.engine.Run()
}

// TestRequeueWBOrderingAcrossRetrySwitchFlip: a retried write back
// requeues at the FRONT of the castout buffer (it is the oldest entry,
// and FIFO order bounds how long a dirty line sits outside any array),
// and this holds while the retry burst itself flips the WBHT's
// adaptive switch. All entries must still reach the L3 exactly once.
func TestRequeueWBOrderingAcrossRetrySwitchFlip(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.RetryThreshold = 1
	s, err := newSystem(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	A := s.l2s[0]
	K1 := key(&cfg, 0, 0, 11)
	K2 := key(&cfg, 0, 1, 12)
	K3 := key(&cfg, 0, 2, 13)
	for _, k := range []uint64{K1, K2, K3} {
		if got := A.ProcessVictim(k, coherence.Modified, false, false); got != l2.VictimQueued {
			t.Fatalf("ProcessVictim(%#x) = %v, want queued", k, got)
		}
	}

	// Exhaust the L3 queue tokens so the head entry's combine retries.
	for i := 0; s.l3.QueueInUse() < cfg.L3QueueEntries; i++ {
		s.l3.SnoopWB(key(&cfg, 1, i%16, 99), coherence.DirtyWB)
	}
	if s.rswitch.AdvanceTo(0); s.rswitch.ActiveNow() {
		t.Fatal("retry switch active before any retry")
	}

	e, ok := A.HeadWB()
	if !ok || e.Key != K1 {
		t.Fatalf("HeadWB = %v/%v, want K1", e, ok)
	}
	s.wbInFlight[0] = true
	entry, wasCancelled := A.CompleteWB(K1)
	if wasCancelled {
		t.Fatal("entry unexpectedly cancelled")
	}
	s.retryWB(A, entry, 0)

	var order []uint64
	A.ForEachWB(func(e l2.WBEntry) { order = append(order, e.Key) })
	want := []uint64{K1, K2, K3}
	if len(order) != len(want) {
		t.Fatalf("queue length %d after requeue, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("queue order %#x, want %#x (retry must requeue at the front)", order, want)
		}
	}
	if s.rswitch.AdvanceTo(cfg.WBHT.RetryWindow); !s.rswitch.ActiveNow() {
		t.Fatal("threshold-1 switch did not arm at the next window boundary")
	}

	for s.l3.QueueInUse() > 0 {
		s.l3.ReleaseToken()
	}
	s.engine.Run() // backoff expires, pump drains K1, K2, K3 in order
	for _, k := range want {
		if !s.l3.Contains(k) {
			t.Errorf("key %#x never reached the L3", k)
		}
	}
	if n := A.WBQueueLen(); n != 0 {
		t.Errorf("castout buffer not drained: %d entries", n)
	}
	if s.wbInFlight[0] {
		t.Error("write-back slot still marked in flight")
	}
	if s.wbRetried != 1 {
		t.Errorf("wbRetried = %d, want 1", s.wbRetried)
	}
}

// TestAuditorCleanOnWorkloads runs every built-in workload under every
// mechanism with the full differential auditor attached: the invariant
// set must hold on all the configurations the experiments report. One
// more input runs tp on a 32-core chip, whose 16 L2 slices put holder
// bits past the first byte of the auditor's holder masks.
func TestAuditorCleanOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the fuzz soak in short mode")
	}
	type input struct {
		name string
		cfg  config.Config
		p    workload.Profile
	}
	var inputs []input
	for _, name := range workload.Names() {
		for _, mech := range []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined} {
			p, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p.RefsPerThread = 1200
			inputs = append(inputs, input{name + "/" + mech.String(), config.Default().WithMechanism(mech), p})
		}
	}
	big := config.Default().WithMechanism(config.Combined)
	big.Cores = 32
	p, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	p.Threads = 64
	p.RefsPerThread = 120
	inputs = append(inputs, input{"tp/combined/32-core", big, p})

	for _, in := range inputs {
		tr, err := in.p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		s, err := newSystem(in.cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		a := audit.New(audit.Config{Differential: true, SweepEvery: 1024})
		s.Attach(Attachments{Auditor: a})
		s.Run()
		if !a.Ok() {
			t.Errorf("%s: %s", in.name, a.Summary())
		}
		if a.Sweeps() == 0 {
			t.Errorf("%s: auditor never swept", in.name)
		}
	}
}
