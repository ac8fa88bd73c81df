package system

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/sim"
)

// Local aliases keep the transaction-flow code readable.
type l2Handle = *l2.Cache

const (
	probeHit             = l2.ProbeHit
	probeHitStoreUpgrade = l2.ProbeHitStoreUpgrade
	probeHitNeedsUpgrade = l2.ProbeHitNeedsUpgrade
	probeWBBufferHit     = l2.ProbeWBBufferHit
	probeMiss            = l2.ProbeMiss
	l2VictimQueued       = l2.VictimQueued
)

// Bus agent identities for the Snoop Collector: L2 caches use their own
// indices; the L3 and memory controllers take ids beyond any L2's.
const (
	agentL3  = 100
	agentMem = 101
)

// pumpWB issues the next write back from l2idx's queue onto the ring,
// one bus transaction in flight per L2 (the queue drains head-first, as
// a hardware castout machine would). now is the cycle the pump was
// woken — the global clock on the global lane, or the posting slice
// event's cycle when the wake arrives through the slice lane's drain.
func (s *System) pumpWB(l2idx int, now config.Cycles) {
	if s.wbInFlight[l2idx] {
		return
	}
	cache := s.l2s[l2idx]
	entry, ok := cache.HeadWB()
	if !ok {
		return
	}
	s.wbInFlight[l2idx] = true
	s.wbTxns++

	slot := s.ring.ReserveAddress(now)
	combineAt := slot + s.cfg.AddressPhase
	for _, o := range s.observers {
		o.WBIssued(now, cache.ID(), entry.Key, combineAt)
	}
	s.engine.AtCall(combineAt, s.hCombineWB, sim.EventData{
		Ptr: cache, Key: entry.Key, Kind: int8(entry.Kind), Flag: entry.Snarfable,
	})
}

// combineWB is the write back's atomic snoop-and-commit point.
func (s *System) combineWB(cache l2Handle, key uint64, kind coherence.TxnKind, snarfable bool) {
	now := s.engine.Now()

	// Every write back on the bus is observed by the policy (the
	// snarf reuse tables record it: "The tag for a line is entered into
	// the table when the line is written back by any L2 cache").
	s.policy.ObserveWriteBack(key)

	l3resp := s.l3.SnoopWB(key, kind)
	if kind == coherence.CleanWB && l3resp != coherence.RespWBRedundant {
		if s.reuse.everInL3(key) {
			s.cleanWBLost++
		} else {
			s.cleanWBFirst++
		}
	}
	responses := append(s.responses[:0], coherence.AgentResponse{Agent: agentL3, Resp: l3resp})
	var peerSquasher l2Handle
	if s.policy.SnoopsWB() {
		for _, peer := range s.l2s {
			if peer.ID() == cache.ID() {
				continue
			}
			resp := peer.SnoopWB(key, kind, snarfable)
			if snarfable {
				peer.ReservePort(key, now) // tag access for the snarf check
			}
			if resp == coherence.RespWBSquash && peerSquasher == nil {
				peerSquasher = peer
			}
			responses = append(responses, coherence.AgentResponse{Agent: peer.ID(), Resp: resp})
		}
	}

	out := s.collector.Combine(kind, responses)
	// l3Accepted tracks whether the L3's incoming-queue token is still
	// held and must be released before this transaction retires (unless
	// sendToL3 takes over the obligation).
	l3Accepted := l3resp == coherence.RespWBAccept
	if l3Accepted {
		for _, o := range s.observers {
			o.TokenAcquired()
		}
	}

	// The policy learns from the L3's snoop response to clean
	// write backs (Section 2, step 3: the WBHT allocation point,
	// writer-local or global per the Figure 3 variant). Tables are kept
	// up to date even while the retry switch has disabled their use.
	if kind == coherence.CleanWB {
		s.policy.ObserveCleanWBOutcome(cache.ID(), key, l3resp == coherence.RespWBRedundant)
	}

	entry, cancelled := cache.CompleteWB(key)

	for _, o := range s.observers {
		o.WBCombine(now, cache.ID(), key, kind, wbDisposition(cancelled, out), snarfable)
	}

	switch {
	case cancelled:
		// A demand access reclaimed the line while this transaction was
		// on the bus: ignore the outcome entirely.
		s.wbCancelled++
		for _, o := range s.observers {
			o.WBCancelled(now, cache.ID(), key, out.WBSnarfed)
		}
		if l3Accepted {
			s.releaseL3Token()
		}
		s.finishWB(cache.ID())

	case out.Retry:
		// The L3 had no queue space and nobody else took the line: the
		// entry re-arbitrates after a backoff. This is the retry traffic
		// the adaptive mechanisms exist to reduce.
		s.retryWB(cache, entry, now)

	case out.WBSquashed:
		squasher := -1 // the peer that inherits the line, if any
		if out.SquashedByL3 {
			s.wbSquashedByL3++
		} else {
			s.wbSquashedPeer++
			if peerSquasher != nil {
				squasher = peerSquasher.ID()
				if kind == coherence.DirtyWB {
					// Our dirty data dies with the squash; the squashing
					// peer holds an identical copy and inherits the
					// write-back obligation.
					peerSquasher.TakeWBObligation(key)
				} else if entry.State == coherence.SharedLast {
					// The designated clean supplier just left the chip's
					// L2s; hand the supplier role to the squasher so the
					// remaining sharers keep an intervention source.
					peerSquasher.TakeSupplierRole(key)
				}
			}
		}
		for _, o := range s.observers {
			o.WBSquashed(now, cache.ID(), entry, out.SquashedByL3, squasher)
		}
		if l3Accepted {
			s.releaseL3Token()
		}
		s.finishWB(cache.ID())

	case out.WBSnarfed:
		s.settleSnarf(cache, entry, s.l2s[out.SnarfWinner], l3Accepted, now)

	case out.WBToL3:
		s.wbToL3++
		s.sendToL3(cache, entry, now) // token released by sendToL3's completion
		s.finishWB(cache.ID())

	default:
		panic("system: write-back combine with no disposition")
	}
}

// retryWB counts a retried write back, requeues entry at the head of
// its queue, and re-arbitrates after the configured backoff (hFinishWB
// releases the L2's bus slot when the backoff expires).
func (s *System) retryWB(cache l2Handle, entry l2.WBEntry, now config.Cycles) {
	s.wbRetried++
	s.rswitch.RecordRetry(now)
	for _, o := range s.observers {
		o.WBRetry(now, cache.ID(), entry.Key)
	}
	cache.RequeueWB(entry)
	s.engine.ScheduleCall(s.cfg.RetryBackoff, s.hFinishWB,
		sim.EventData{Key: uint64(cache.ID())})
}

// settleSnarf finishes a write back whose combined response elected a
// snarf winner. If the winner can no longer install the line (its
// candidate way vanished within this cycle — extremely rare), the line
// falls back to the L3 when its queue token is held, and otherwise is
// requeued to re-arbitrate like any retried write back. The requeue is
// load-bearing: dropping the entry here would silently lose a dirty
// line.
func (s *System) settleSnarf(cache l2Handle, entry l2.WBEntry, winner l2Handle, l3Accepted bool, now config.Cycles) {
	displaced, dropped, accepted := winner.AcceptSnarf(entry)
	switch {
	case accepted:
		s.wbSnarfed++
		for _, o := range s.observers {
			o.WBSnarfed(now, cache.ID(), entry, winner.ID(), displaced, dropped)
		}
		if l3Accepted {
			s.releaseL3Token()
		}
		// The line moves L2-to-L2 across the data ring.
		s.ring.ReserveData(now)
	case l3Accepted:
		s.snarfFallbacks++
		for _, o := range s.observers {
			o.WBCombine(now, cache.ID(), entry.Key, entry.Kind, "snarf-fallback", entry.Snarfable)
		}
		s.sendToL3(cache, entry, now)
	default:
		s.snarfFallbacks++
		for _, o := range s.observers {
			o.WBCombine(now, cache.ID(), entry.Key, entry.Kind, "snarf-retry", entry.Snarfable)
		}
		s.retryWB(cache, entry, now)
		return // the entry re-arbitrates; the bus slot is not yet free
	}
	s.finishWB(cache.ID())
}

// wbDisposition names a write-back combine outcome for the event trace.
func wbDisposition(cancelled bool, out coherence.Outcome) string {
	switch {
	case cancelled:
		return "cancelled"
	case out.Retry:
		return "retry"
	case out.WBSquashed && out.SquashedByL3:
		return "squash-l3"
	case out.WBSquashed:
		return "squash-peer"
	case out.WBSnarfed:
		return "snarf"
	case out.WBToL3:
		return "to-l3"
	}
	return "none"
}

// finishWB retires l2idx's in-flight write-back transaction and pumps
// the next queued entry.
func (s *System) finishWB(l2idx int) {
	s.wbInFlight[l2idx] = false
	s.pumpWB(l2idx, s.engine.Now())
}

// sendToL3 moves cache's accepted write back entry across the data ring
// into the L3 array, casting out any displaced dirty victim to memory,
// and releases the L3's incoming-queue token when the array write
// retires — the token hold time is what makes bursts of write backs
// overflow the queue and draw retries.
func (s *System) sendToL3(cache l2Handle, entry l2.WBEntry, now config.Cycles) {
	for _, o := range s.observers {
		o.WBToL3(now, cache.ID(), entry)
	}
	s.reuse.recordAccepted(entry.Key)
	dStart := s.ring.ReserveData(now)
	arrive := dStart + s.cfg.DataRingOccupancy
	s.engine.AtCall(arrive, s.hWBArriveL3, sim.EventData{Key: entry.Key, Kind: int8(entry.Kind)})
}

// wbArriveL3 books the L3 slice for an arrived write back and schedules
// the array-write retirement (hWBArriveL3).
func (s *System) wbArriveL3(d sim.EventData) {
	wStart := s.l3.ReserveSlice(d.Key, s.engine.Now())
	s.engine.AtCall(wStart+s.cfg.L3SliceOccupancy, s.hRetireL3Write, d)
}

// retireL3Write installs the line, drains any displaced dirty victim to
// memory, and frees the incoming-queue token.
func (s *System) retireL3Write(key uint64, kind coherence.TxnKind) {
	s.reuse.recordL3Insert(key)
	co, castout := s.l3.Insert(key, kind)
	for _, o := range s.observers {
		o.L3Retire(s.engine.Now(), key, kind, co.Key, castout)
	}
	if castout {
		// The displaced dirty victim must drain to memory before the
		// L3's buffer entry frees: under memory pressure this castout
		// backpressure is what turns an L3-thrashing workload (TP) into
		// a retry storm.
		memStart := s.mem.ReserveWrite(s.engine.Now())
		s.engine.AtCall(memStart, s.hReleaseL3Token, sim.EventData{})
		return
	}
	s.releaseL3Token()
}

// releaseL3Token returns one L3 incoming-queue token, keeping the
// observers' credit ledgers in step. Every release in the system goes
// through here.
func (s *System) releaseL3Token() {
	s.l3.ReleaseToken()
	for _, o := range s.observers {
		o.TokenReleased()
	}
}
