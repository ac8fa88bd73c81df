package system

import (
	"testing"

	"cmpcache/internal/audit"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

// TestSilentStoreUpgradeNoBusTraffic is the regression test for the
// suspected E→M auditor miss. The suspicion: a store hitting an
// Exclusive line upgraded to Modified inside l2.Probe — a mutation the
// auditor's reference model never saw, so a differential sweep between
// the probe and the next observed event could report a phantom state.
// The analysis concluded there is NO such miss: the reference model
// applies the same silent upgrade when it replays the store-hit
// observation, so the two models were never out of sync at a sweep
// point. What WAS wrong is structural — Probe, a read-mostly
// classification call, mutated tag state as a side effect, invisible
// to policy hooks and impossible to commit in a different event than
// the probe. The fix makes Probe pure: it returns
// ProbeHitStoreUpgrade and the shard commits the E→M transition
// through Line.SetState beside the store-hit observation (shard.resolve).
//
// This test documents both halves: the upgrade is still silent (no bus
// Upgrade transaction, no extra address traffic) and still committed
// (the line lands in M), while the differential auditor — which would
// now catch any probe-side mutation, since the reference model only
// learns state at observed events — stays clean.
func TestSilentStoreUpgradeNoBusTraffic(t *testing.T) {
	cfg := config.Default()
	line := uint64(0x10000)
	tr := mkTrace(
		trace.Record{Thread: 0, Op: trace.Load, Addr: line},
		trace.Record{Thread: 0, Op: trace.Store, Addr: line, Gap: 1000},
	)
	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.New(audit.Config{Differential: true, SweepEvery: 1})
	s.Attach(Attachments{Auditor: aud})
	r := s.Run()

	key := line / uint64(cfg.LineBytes)
	if got := s.l2s[0].Line(key).State(); got != coherence.Modified {
		t.Fatalf("after store on E line: state = %v, want Modified", got)
	}
	if r.Upgrades != 0 {
		t.Fatalf("silent E→M upgrade issued %d bus Upgrade transactions, want 0", r.Upgrades)
	}
	// Exactly one address transaction: the cold load. The store must not
	// re-arbitrate the ring.
	if r.AddressTxns != 1 {
		t.Fatalf("address transactions = %d, want 1 (cold load only)", r.AddressTxns)
	}
	if r.L2.Hits != 1 {
		t.Fatalf("store on E line counted %d hits, want 1", r.L2.Hits)
	}
	if !aud.Ok() {
		t.Fatalf("differential audit violations on silent upgrade:\n%s", aud.Summary())
	}
}
