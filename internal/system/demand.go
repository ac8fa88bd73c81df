package system

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/sim"
)

// pendingAccess carries one thread reference through the L2 front end:
// issue, probe (including structural-stall retries) and completion.
// Nodes come from the System's access pool; completeFn is bound once per
// node, so in steady state an access consumes no allocations from issue
// to the latency observation at completion.
type pendingAccess struct {
	cache   l2Handle // the issuing thread's L2
	key     uint64
	issued  config.Cycles
	done    func(config.Cycles) // thread completion (cpu doneFn)
	isStore bool
	count   bool       // false on re-attempts after a structural stall
	stall   l2.StallID // registration while stalled (see System.repoll)

	// completeFn is this node's completion callback: it observes the
	// fill latency, releases the node and calls done. It is what gets
	// attached to MSHRs, so coalescing waiters allocates nothing.
	completeFn func(config.Cycles)
}

// startDemand arbitrates for the address ring at cycle now and
// schedules the transaction's combined-response event. Global lane
// only: the slice lane posts a busPost instead, and the drain at the end
// of the post's cycle calls this — so a request arbitrates at the same
// time whether it was raised on the global lane or on the slice lane.
func (s *System) startDemand(cache l2Handle, key uint64, kind coherence.TxnKind, now config.Cycles) {
	s.demandTxns++
	slot := s.ring.ReserveAddress(now)
	combineAt := slot + s.cfg.AddressPhase
	for _, o := range s.observers {
		o.DemandStart(now, cache.ID(), key, kind, s.rswitch.ActiveNow(), combineAt)
	}
	s.engine.AtCall(combineAt, s.hCombineDemand,
		sim.EventData{Ptr: cache, Key: key, Kind: int8(kind)})
}

// combineDemand is the transaction's atomic snoop-and-commit point: all
// agents snoop, the Snoop Collector combines, and the requester's tag
// state (including victim handling) updates. Data movement is scheduled
// onto the ring and source resources and completes the waiters later.
//
// Combine events fire on the global lane, after the slice lane has run
// this cycle's events and drained its logs — so the tag state a snoop
// observes is exactly the state at the combine cycle.
func (s *System) combineDemand(cache l2Handle, key uint64, kind coherence.TxnKind) {
	now := s.engine.Now()
	isLoad := kind == coherence.Read

	// A claim's own line is read here and written at its commit below;
	// the combine snoops only the peers, so the handle stays valid.
	var claimed l2.Line
	if kind == coherence.Upgrade {
		if claimed = cache.Line(key); !claimed.State().Valid() {
			// The claim lost its race: a transaction serialized before
			// this one already invalidated the requester's copy. A stale
			// claim must be a complete no-op for everyone else — bus
			// ordering allows a Read to have demoted the new owner to
			// Tagged in the meantime, and snooping the claim would
			// invalidate that only dirty copy (and the L3's). Restart as
			// a full RWITM without snooping anyone.
			s.restartUpgrade(cache, key, now)
			return
		}
	}

	// The policy observes every demand miss on the bus (the snarf
	// reuse tables record it: "missed on either locally or by another
	// L2 cache"), and the Table 2 tracker scores write-back reuse.
	s.policy.ObserveDemandMiss(key)
	s.reuse.recordDemandMiss(key)

	// A non-stale ownership claim asks the policy whether to update the
	// known sharers in place instead of invalidating them (the hybrid
	// update/invalidate policy; always false for the paper mechanisms).
	useUpdate := kind == coherence.Upgrade && s.policy.UseUpdate(key)

	responses := s.responses[:0]
	for _, peer := range s.l2s {
		if peer.ID() == cache.ID() {
			continue
		}
		var resp coherence.Response
		if useUpdate {
			resp = peer.SnoopUpdate(key)
		} else {
			resp = peer.SnoopDemand(key, kind)
		}
		if resp == coherence.RespNull {
			// The castout buffer snoops too: a queued write back supplies
			// data like an array copy would, and an invalidating
			// transaction cancels it before it can be resurrected stale.
			wbResp, wbe, wbDropped := peer.SnoopDemandWB(key, kind)
			resp = wbResp
			if wbDropped {
				for _, o := range s.observers {
					o.WBInvalidated(now, peer.ID(), wbe)
				}
			}
		}
		peer.ReservePort(key, now) // snoop consumes peer tag bandwidth
		responses = append(responses, coherence.AgentResponse{Agent: peer.ID(), Resp: resp})
	}
	responses = append(responses, coherence.AgentResponse{
		Agent: agentL3, Resp: s.l3.SnoopDemand(key, kind, isLoad),
	})
	if kind != coherence.Upgrade {
		responses = append(responses, coherence.AgentResponse{Agent: agentMem, Resp: coherence.RespMemAck})
	}

	out := s.collector.Combine(kind, responses)
	for _, o := range s.observers {
		o.DemandCombine(now, cache.ID(), key, kind, out)
	}
	s.policy.ObserveDemandOutcome(cache.ID(), key, kind, out)

	if kind == coherence.Upgrade {
		s.commitUpgrade(cache, claimed, key, now, useUpdate, out.SharedElsewhere)
		return
	}
	s.commitFill(cache, key, kind, out, now)
}

// restartUpgrade reissues an ownership claim whose copy a racing
// transaction invalidated between issue and combine as a full RWITM,
// keeping its MSHR and waiters.
func (s *System) restartUpgrade(cache l2Handle, key uint64, now config.Cycles) {
	s.upgradeRestarts++
	for _, o := range s.observers {
		o.Upgrade(now, cache.ID(), key, true, false, coherence.Invalid)
	}
	cache.ReissueMSHR(key, coherence.RWITM)
	s.startDemand(cache, key, coherence.RWITM, now)
}

// commitUpgrade finishes an ownership claim on line, the requester's
// copy of key. On the invalidate path (the protocol default) peers and
// the L3 relinquished their copies during the snoop and our line
// becomes Modified. On the update path (hybrid update/invalidate
// policy) peers kept demoted-Shared copies: the writer becomes Tagged
// when sharers survived — pushing the new data to them across the data
// ring — and Modified otherwise.
func (s *System) commitUpgrade(cache l2Handle, line l2.Line, key uint64, now config.Cycles, update, sharers bool) {
	s.upgrades++
	st := coherence.Modified
	if update {
		s.upgradeUpdates++
		if sharers {
			// At least one peer copy (or in-flight castout) survived the
			// snoop as a plain sharer: we stay its dirty supplier and the
			// update push occupies one data-ring beat (fire and forget —
			// the store's completion is ordered at the combine, like
			// every ownership transition).
			st = coherence.Tagged
			s.updatePushes++
			s.ring.ReserveData(now)
		}
	}
	for _, o := range s.observers {
		o.Upgrade(now, cache.ID(), key, false, update, st)
	}
	line.SetState(st)
	loads, stores := cache.TakeWaiters(key)
	s.wakeWaiters(now, loads, stores)
}

// fillState decides the requester's installed state per the POWER4-style
// rules.
func fillState(kind coherence.TxnKind, out coherence.Outcome) coherence.State {
	if kind == coherence.RWITM {
		return coherence.Modified
	}
	switch {
	case out.DirtySource:
		// The supplier retains the write-back obligation as Tagged; we
		// are a plain sharer.
		return coherence.Shared
	case out.SharedElsewhere:
		// Most recent reader becomes the designated clean supplier.
		return coherence.SharedLast
	default:
		return coherence.Exclusive
	}
}

// commitFill installs the miss response, processes the displaced victim
// and schedules data arrival from the chosen source.
func (s *System) commitFill(cache l2Handle, key uint64, kind coherence.TxnKind, out coherence.Outcome, now config.Cycles) {
	st := fillState(kind, out)
	vKey, vState, evicted := cache.InstallFill(key, st)
	if evicted {
		s.handleVictimGlobal(cache, vKey, vState, now)
	}
	for _, o := range s.observers {
		o.Fill(now, cache.ID(), key, kind, st, out)
	}

	// Data movement: the source access runs first; the data ring is
	// booked at the cycle the line is actually ready to leave, so
	// resource reservations always occur in nondecreasing time order
	// (booking a resource at a future instant would block earlier
	// requests behind phantom occupancy).
	var readyAt config.Cycles
	switch out.Source {
	case coherence.SourcePeerL2:
		// The supplier's port was already reserved during its snoop; the
		// source-access latency covers the data read.
		s.fillsFromPeer++
		readyAt = now + s.cfg.PeerSourceLatency - s.cfg.DataRingOccupancy
	case coherence.SourceL3:
		s.fillsFromL3++
		sStart := s.l3.ReserveSlice(key, now)
		readyAt = sStart + s.cfg.L3SourceLatency - s.cfg.DataRingOccupancy
	case coherence.SourceMemory:
		s.fillsFromMem++
		mStart := s.mem.ReserveRead(now)
		readyAt = mStart + s.cfg.MemSourceLatency - s.cfg.DataRingOccupancy
	default:
		panic("system: demand combine without a data source")
	}

	s.engine.AtCall(readyAt, s.hFillReady,
		sim.EventData{Ptr: cache, Key: key, Kind: int8(kind)})
}

// fillDataReady books the data ring for the arrived source line and
// schedules delivery (hCompleteFill). Delivery is a slice event —
// waking waiters touches only the requesting L2's front end — so it is
// scheduled onto the slice wheel.
func (s *System) fillDataReady(d sim.EventData) {
	cache := d.Ptr.(l2Handle)
	for _, o := range s.observers {
		o.DemandSourceReady(s.engine.Now(), cache.ID(), d.Key)
	}
	dStart := s.ring.ReserveData(s.engine.Now())
	s.sliceWheel.AtCall(dStart+s.cfg.DataRingOccupancy, s.hCompleteFill, d)
}

// handleVictimGlobal routes an evicted line through the Section 2
// write-back policy from global context (fill installs and snarf
// displacements, which commit at bus events): the Victim hook runs
// directly and a queued entry pumps the write-back machinery in place.
// Slice-lane evictions go through System.handleVictim instead.
func (s *System) handleVictimGlobal(cache l2Handle, vKey uint64, vState coherence.State, now config.Cycles) {
	switchActive := s.policy.GatedBySwitch() && s.rswitch.ActiveNow()
	inL3 := s.l3.Contains(vKey) // oracle peek, used only for scoring
	action := cache.ProcessVictim(vKey, vState, switchActive, inL3)
	for _, o := range s.observers {
		o.Victim(now, cache.ID(), vKey, vState, action, inL3, s.rswitch.ActiveNow())
	}
	if action == l2VictimQueued {
		s.reuse.recordAttempt(vKey)
		s.pumpWB(cache.ID(), now)
	}
}
