// Package wbpolicy defines the write-back policy plug-in interface: the
// three decision points the paper's adaptive mechanisms occupy —
// clean-write-back abort (the WBHT squash), snarf flagging at the ring,
// and peer accept/reject — plus the observation hooks a policy trains
// on. The simulator core (internal/system, internal/l2) is policy-
// agnostic: it calls through Policy at exactly the sites the hard-coded
// mechanisms used to own, so new policies drop in without touching
// ring, L3 or protocol code.
//
// One Policy value serves the whole chip. A hook that concerns one L2
// takes that L2's index, and every L2 calls it with its own. Every
// policy embeds Base, the policy that does nothing, and overrides only
// the hooks it uses.
//
// Determinism obligations (DESIGN.md §16): hooks must not consult wall
// clocks, map iteration order, or randomness, and a detached policy
// (every hook a no-op) must not perturb the event sequence. Every hook
// runs on the one event loop, in its fixed order, so a policy needs no
// synchronization. The conformance suite in internal/system runs every
// registered policy under the differential auditor and pins its hooks
// to zero allocations; TestResultsGolden pins each policy's Results
// bytes.
package wbpolicy

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
)

// Policy is a write-back policy.
type Policy interface {
	// AbortCleanWB is decision point 1: L2 l2 evicted a clean line;
	// return true to suppress its copy-back to the L3 entirely (the
	// paper's WBHT squash). switchActive is the adaptive retry-rate
	// switch state for policies gated by it (GatedBySwitch); inL3 is
	// the simulator's oracle peek, passed solely so policies can score
	// their own prediction accuracy — it must not influence the
	// decision beyond bookkeeping.
	AbortCleanWB(l2 int, key uint64, switchActive, inL3 bool) bool

	// FlagWriteBack is decision point 2: L2 l2 is about to queue a write
	// back; return true to mark it snarfable on the bus so peers run
	// their accept logic when it combines.
	FlagWriteBack(l2 int, key uint64) bool

	// AcceptOffer is decision point 3: a snarfable peer write back
	// passed L2 l2's structural checks (no miss in flight for the line,
	// a replaceable way exists); return true to volunteer for it.
	AcceptOffer(l2 int, key uint64) bool

	// SnoopsWB reports whether peer L2s snoop write backs at all
	// (squash detection and snarf volunteering). When false the system
	// skips the peer loop at write-back combines, and an L2 answers a
	// write-back snoop with RespNull without a tag lookup.
	SnoopsWB() bool

	// GatedBySwitch reports whether AbortCleanWB should receive the
	// adaptive retry-rate switch state (true only for policies that
	// opt into Section 2.2's gating; others always receive false).
	GatedBySwitch() bool

	// ObserveLocalMiss: L2 l2 started a new demand bus transaction for
	// key.
	ObserveLocalMiss(l2 int, key uint64)

	// ObserveEviction: a valid line left L2 l2's tag array (any state,
	// before the write-back decision runs).
	ObserveEviction(l2 int, key uint64)

	// ObserveWriteBack: a write-back transaction for key combined on
	// the bus (fires for every WB, before snooping).
	ObserveWriteBack(key uint64)

	// ObserveCleanWBOutcome: a clean write back from L2 writer
	// combined; l3Has reports the L3 redundancy filter held the line
	// (the WBHT allocation point, Section 2 step 3).
	ObserveCleanWBOutcome(writer int, key uint64, l3Has bool)

	// ObserveDemandMiss: a demand transaction for key combined on the
	// bus (fires for every non-stale demand, before snooping).
	ObserveDemandMiss(key uint64)

	// ObserveDemandOutcome: the combined response for a demand
	// transaction is known (fires after the Snoop Collector, before
	// commit).
	ObserveDemandOutcome(requester int, key uint64, kind coherence.TxnKind, out coherence.Outcome)

	// UseUpdate decides, at a non-stale ownership claim's combine,
	// whether to update the known sharers in place instead of
	// invalidating them (the hybrid update/invalidate policy). The
	// decision itself may train the policy's state.
	UseUpdate(key uint64) bool

	// WBHT exposes L2 l2's Write Back History Table for statistics and
	// history-informed replacement, or nil.
	WBHT(l2 int) *core.WBHT

	// SnarfTable exposes L2 l2's snarf reuse table for statistics, or
	// nil.
	SnarfTable(l2 int) *core.SnarfTable

	// Stats returns policy-specific counters for Results, or nil when
	// the policy has none (the four paper mechanisms report through
	// their WBHT/snarf tables instead).
	Stats() *Stats
}

// Base is the policy that does nothing: it aborts no clean write back,
// flags none snarfable, accepts every offer that passed the structural
// checks, snoops no write back, observes nothing and has no tables or
// counters. It is the baseline's behavior at every hook, and every
// policy embeds it.
type Base struct{}

func (Base) AbortCleanWB(int, uint64, bool, bool) bool                              { return false }
func (Base) FlagWriteBack(int, uint64) bool                                         { return false }
func (Base) AcceptOffer(int, uint64) bool                                           { return true }
func (Base) SnoopsWB() bool                                                         { return false }
func (Base) GatedBySwitch() bool                                                    { return false }
func (Base) ObserveLocalMiss(int, uint64)                                           {}
func (Base) ObserveEviction(int, uint64)                                            {}
func (Base) ObserveWriteBack(uint64)                                                {}
func (Base) ObserveCleanWBOutcome(int, uint64, bool)                                {}
func (Base) ObserveDemandMiss(uint64)                                               {}
func (Base) ObserveDemandOutcome(int, uint64, coherence.TxnKind, coherence.Outcome) {}
func (Base) UseUpdate(uint64) bool                                                  { return false }
func (Base) WBHT(int) *core.WBHT                                                    { return nil }
func (Base) SnarfTable(int) *core.SnarfTable                                        { return nil }
func (Base) Stats() *Stats                                                          { return nil }

// Stats aggregates the counters of the two literature policies. A field
// is meaningful only for the policy that owns it; unused fields stay
// zero and are omitted from JSON.
type Stats struct {
	// reusedist: sketch training and gating.
	SketchEvictions uint64 `json:",omitempty"` // evictions recorded into the sketch
	SketchSamples   uint64 `json:",omitempty"` // reuse-distance samples folded into EWMAs
	PredictConsults uint64 `json:",omitempty"` // clean-WB gates with a trained entry
	PredictCold     uint64 `json:",omitempty"` // clean-WB gates without training (copy back)
	PredictAborts   uint64 `json:",omitempty"` // clean copy-backs suppressed
	AbortsLineInL3  uint64 `json:",omitempty"` // suppressed while the L3 held the line (free)

	// hybridui: sharing scores and upgrade routing.
	ScoredReads        uint64 `json:",omitempty"` // peer-sourced reads that bumped a score
	UpdatePushes       uint64 `json:",omitempty"` // upgrades routed to the update path
	InvalidateUpgrades uint64 `json:",omitempty"` // upgrades routed to invalidation
}

// New builds the write-back policy for cfg's mechanism. cfg must
// already be validated.
func New(cfg *config.Config) Policy {
	switch cfg.Mechanism {
	case config.ReuseDist:
		return newReuse(cfg)
	case config.HybridUI:
		return newHybrid(cfg)
	default:
		return newPaper(cfg)
	}
}
