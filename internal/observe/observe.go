// Package observe is the seam between the simulated chip and the
// instruments that read it: the metrics probe, its event trace, the
// shadow auditor and the latency collector.
//
// internal/system keeps one list of Observers and calls every observer
// in it at each protocol commit point, so a run with nothing attached
// pays one length check per commit point. Hooks are observation-only:
// an observer never schedules an event or changes simulated state, so
// attached and detached runs fire the same events and produce the same
// Results. The system reports what happened; each instrument decides
// what an event means to it.
//
// A hook's first arguments are the cycle it happened at and the L2
// slice it concerns. Hooks raised on the slice lane are replayed, in
// (slice, append) order, at the end of their cycle (DESIGN.md §15).
package observe

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
)

// Observer is one instrument attached to a run. Embed Base and override
// the hooks the instrument needs.
type Observer interface {
	// Tick runs once per simulated cycle, before that cycle's first
	// event.
	Tick(now config.Cycles)
	// AdvanceEvents credits n fired events at cycle now. With n == 0 it
	// only moves the event clock, ahead of a slice-lane cycle's replay.
	AdvanceEvents(now config.Cycles, n uint64)

	// DemandIssued: a miss, or a hit needing ownership, allocated its
	// MSHR; issued is the thread's issue cycle.
	DemandIssued(now config.Cycles, l2 int, key uint64, issued config.Cycles)
	// DemandStart: a demand transaction won the address ring (first
	// issue, upgrade restart or post-fill ownership claim) and combines
	// at combineAt.
	DemandStart(now config.Cycles, l2 int, key uint64, kind coherence.TxnKind, switchOn bool, combineAt config.Cycles)
	// DemandCombine: a demand transaction's combined response.
	DemandCombine(now config.Cycles, l2 int, key uint64, kind coherence.TxnKind, out coherence.Outcome)
	// Fill: a demand fill installed the line in state st.
	Fill(now config.Cycles, l2 int, key uint64, kind coherence.TxnKind, st coherence.State, out coherence.Outcome)
	// Upgrade: an ownership claim combined. restarted reports a stale
	// claim that reissues as RWITM; otherwise the writer installed st,
	// in update mode (sharers kept demoted copies) when update is set.
	Upgrade(now config.Cycles, l2 int, key uint64, restarted, update bool, st coherence.State)
	// DemandSourceReady: the fill's data is ready to leave its source.
	DemandSourceReady(now config.Cycles, l2 int, key uint64)
	// DemandComplete: a fill's data reached the requester.
	DemandComplete(now config.Cycles, l2 int, key uint64)
	// StoreHit: a store completed locally, through a silent E→M upgrade
	// or on a Modified line.
	StoreHit(now config.Cycles, l2 int, key uint64)

	// Victim: a valid line in state st left the tag array, and the
	// write-back policy decided action. switchOn is the retry switch's
	// state.
	Victim(now config.Cycles, l2 int, key uint64, st coherence.State, action l2.VictimAction, inL3, switchOn bool)
	// WBReinstall: a demand access caught e in the write-back queue and
	// put the line back in the tag array.
	WBReinstall(now config.Cycles, l2 int, e l2.WBEntry)
	// WBInvalidated: a peer's invalidating demand cancelled e in the
	// write-back queue: removed while queued, poisoned on the bus.
	WBInvalidated(now config.Cycles, l2 int, e l2.WBEntry)
	// WBIssued: a queued write back won the address ring and combines
	// at combineAt.
	WBIssued(now config.Cycles, l2 int, key uint64, combineAt config.Cycles)
	// WBCombine: a write back's combined response, or the settlement of
	// a snarf whose winner could not install, named by its disposition
	// (to-l3, squash-l3, snarf-fallback, ...).
	WBCombine(now config.Cycles, l2 int, key uint64, kind coherence.TxnKind, disposition string, snarfable bool)
	// WBRetry: a write back drew a retry and is requeued.
	WBRetry(now config.Cycles, l2 int, key uint64)
	// WBCancelled: a write back combined after a demand access had
	// cancelled it; snarfElected reports that a snarf winner was chosen.
	WBCancelled(now config.Cycles, l2 int, key uint64, snarfElected bool)
	// WBSquashed: e was squashed, by the L3 when byL3 and otherwise by
	// peer squasher (-1 when none inherits it).
	WBSquashed(now config.Cycles, l2 int, e l2.WBEntry, byL3 bool, squasher int)
	// WBSnarfed: peer winner installed e; displaced (valid when dropped)
	// is the Shared line the install victimized.
	WBSnarfed(now config.Cycles, l2 int, e l2.WBEntry, winner int, displaced uint64, dropped bool)
	// WBToL3: e left the queue toward the L3 array.
	WBToL3(now config.Cycles, l2 int, e l2.WBEntry)
	// L3Retire: the L3 array write of key retired; castout (valid when
	// hadCastout) is the dirty victim displaced toward memory.
	L3Retire(now config.Cycles, key uint64, kind coherence.TxnKind, castout uint64, hadCastout bool)
	// TokenAcquired and TokenReleased: the L3 granted or returned one
	// incoming-queue token.
	TokenAcquired()
	TokenReleased()
}

// Base implements every Observer hook as a no-op.
type Base struct{}

func (Base) Tick(config.Cycles)                                                                     {}
func (Base) AdvanceEvents(config.Cycles, uint64)                                                    {}
func (Base) DemandIssued(config.Cycles, int, uint64, config.Cycles)                                 {}
func (Base) DemandStart(config.Cycles, int, uint64, coherence.TxnKind, bool, config.Cycles)         {}
func (Base) DemandCombine(config.Cycles, int, uint64, coherence.TxnKind, coherence.Outcome)         {}
func (Base) Fill(config.Cycles, int, uint64, coherence.TxnKind, coherence.State, coherence.Outcome) {}
func (Base) Upgrade(config.Cycles, int, uint64, bool, bool, coherence.State)                        {}
func (Base) DemandSourceReady(config.Cycles, int, uint64)                                           {}
func (Base) DemandComplete(config.Cycles, int, uint64)                                              {}
func (Base) StoreHit(config.Cycles, int, uint64)                                                    {}
func (Base) Victim(config.Cycles, int, uint64, coherence.State, l2.VictimAction, bool, bool)        {}
func (Base) WBReinstall(config.Cycles, int, l2.WBEntry)                                             {}
func (Base) WBInvalidated(config.Cycles, int, l2.WBEntry)                                           {}
func (Base) WBIssued(config.Cycles, int, uint64, config.Cycles)                                     {}
func (Base) WBCombine(config.Cycles, int, uint64, coherence.TxnKind, string, bool)                  {}
func (Base) WBRetry(config.Cycles, int, uint64)                                                     {}
func (Base) WBCancelled(config.Cycles, int, uint64, bool)                                           {}
func (Base) WBSquashed(config.Cycles, int, l2.WBEntry, bool, int)                                   {}
func (Base) WBSnarfed(config.Cycles, int, l2.WBEntry, int, uint64, bool)                            {}
func (Base) WBToL3(config.Cycles, int, l2.WBEntry)                                                  {}
func (Base) L3Retire(config.Cycles, uint64, coherence.TxnKind, uint64, bool)                        {}
func (Base) TokenAcquired()                                                                         {}
func (Base) TokenReleased()                                                                         {}

// Windows cuts a run into the fixed windows [k·interval, (k+1)·interval)
// and hands each one, numbered k, to emit as it closes. The metrics
// probe and the latency collector cut their series with it.
type Windows struct {
	interval config.Cycles // 0 once finished, or when cutting nothing
	next     config.Cycles // end of the open window
	emit     func(k int, start, end config.Cycles)
}

// NewWindows returns a cutter for interval; one for an interval <= 0
// never emits.
func NewWindows(interval config.Cycles, emit func(k int, start, end config.Cycles)) Windows {
	return Windows{interval: max(interval, 0), next: interval, emit: emit}
}

// Tick closes every window whose end now has reached. An idle stretch
// closes as a run of empty windows, so the series has no gaps.
func (w *Windows) Tick(now config.Cycles) {
	for w.interval > 0 && now >= w.next {
		w.close(w.next)
		w.next += w.interval
	}
}

// close emits the open window, ending it at end.
func (w *Windows) close(end config.Cycles) {
	start := w.next - w.interval
	w.emit(int(start/w.interval), start, end)
}

// Finish closes every window up to end, then a trailing partial one
// when the run did not end on a boundary, and stops the cutter: a
// second Finish emits nothing.
func (w *Windows) Finish(end config.Cycles) {
	w.Tick(end)
	if w.interval > 0 && end > w.next-w.interval {
		w.close(end)
	}
	w.interval = 0
}
