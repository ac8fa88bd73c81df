package system

import (
	"fmt"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
)

// This file is the slice lane's front end: each L2 slice's thread
// issues, tag probes, re-polls and fill deliveries, all on the System's
// one slice wheel. A slice event touches only its own L2's front end
// (probe, MSHRs, write-back queue), its own threads and its access
// node; the access pool is an allocator shared by every slice, and its
// nodes carry no state between uses.
//
// Anything global (the rings, the L3, memory, system counters, the
// observers and the shared reuse tracker) is reached only through two
// logs on the System, drained at the end of each slice-lane cycle:
//
//   - obs: observer hook calls, replayed into the observers (logged
//     only while an observer is attached);
//   - posts: bus requests (demand starts and write-back pumps), which
//     arbitrate for the address ring in log order. A queued victim's
//     pump also scores the write-back attempt in the reuse tracker.
//
// A drain holds one cycle's records. Every record carries its slice,
// and both logs stay in (slice, append) order as records arrive, so the
// drained effect is a pure function of the simulated workload; this
// order is part of the event order the golden Results hashes pin
// (DESIGN.md §15).

// logStamp is a deferred record's place in the drain order: the slice
// that raised it. Every record in a drain shares the drain's cycle.
type logStamp struct {
	slice int
}

func (a logStamp) stamp() logStamp { return a }

// appendOrdered appends rec to log, moving it ahead of the records of
// higher slices, so log stays in (slice, append) order.
func appendOrdered[R interface{ stamp() logStamp }](log []R, rec R) []R {
	log = append(log, rec)
	slice := rec.stamp().slice
	for i := len(log) - 1; i > 0 && slice < log[i-1].stamp().slice; i-- {
		log[i], log[i-1] = log[i-1], log[i]
	}
	return log
}

// obsKind discriminates replayed observation records.
type obsKind int8

const (
	obsStoreHit obsKind = iota
	obsWBReinstall
	obsDemandIssued
	obsDemandComplete
	obsVictim
)

// obsRec is one slice-lane observation hook call, deferred to the end
// of its cycle.
type obsRec struct {
	logStamp
	kind    obsKind
	key     uint64
	issued  config.Cycles   // obsDemandIssued: the access's issue time
	wbe     l2.WBEntry      // obsWBReinstall
	vState  coherence.State // obsVictim
	vAction l2.VictimAction // obsVictim
	inL3    bool            // obsVictim
}

// postKind discriminates deferred bus requests.
type postKind int8

const (
	postDemand postKind = iota
	postPump
)

// busPost is one deferred address-ring request from the slice lane.
// The issuing L2 is the posting slice's cache, so the record carries
// only the request itself (a pump, the queued victim's key); the drain
// executes posts in (slice, append) order — the canonical bus
// arbitration order.
type busPost struct {
	logStamp
	kind postKind
	key  uint64
	txn  coherence.TxnKind
}

// --- log appenders (slice lane only) ---

// logObs appends rec, stamped with cache's slice, to the observation
// log while an observer is attached. A detached run logs nothing.
func (s *System) logObs(cache l2Handle, rec obsRec) {
	if len(s.observers) > 0 {
		rec.logStamp = logStamp{slice: cache.ID()}
		s.obs = appendOrdered(s.obs, rec)
	}
}

// logPost appends rec, stamped with cache's slice, to the post log.
// The drain arbitrates it at the cycle it was raised.
func (s *System) logPost(cache l2Handle, rec busPost) {
	rec.logStamp = logStamp{slice: cache.ID()}
	s.posts = appendOrdered(s.posts, rec)
}

// postDemandTxn defers cache's demand transaction's address-ring
// arbitration to the end of the cycle.
func (s *System) postDemandTxn(cache l2Handle, key uint64, kind coherence.TxnKind) {
	s.logPost(cache, busPost{kind: postDemand, key: key, txn: kind})
}

// --- the L2 front end (slice lane) ---

// access is the issue path of a thread feeding cache: one reference
// enters the hierarchy. The request crosses the core interface unit,
// reserves an L2 slice port and resolves against the tag array; hits
// complete at the Table 3 L2 latency, everything else becomes a bus
// transaction.
func (s *System) access(cache l2Handle, op trace.Op, key uint64, done func(config.Cycles)) {
	p := s.accessPool.Get()
	p.cache = cache
	p.key = key
	p.issued = s.sliceWheel.Now()
	p.done = done
	p.isStore = op == trace.Store
	p.count = true
	// The port is booked for the cycle the request reaches the slice
	// (issue + CoreToL2); booking it from the issue event keeps
	// reservations time-ordered while avoiding an intermediate event.
	start := cache.ReservePort(key, s.sliceWheel.Now()+s.cfg.CoreToL2)
	s.sliceWheel.AtCall(start+s.cfg.L2Access, s.hResolve, sim.EventData{Ptr: p})
}

// finishAccess completes a pending access: the issue-to-completion
// latency is recorded, the node returns to the pool and the thread's
// completion callback runs (which may synchronously issue new work that
// reuses the node). Called from the slice lane at delivery time, and
// from the global lane when a bus commit wakes coalesced waiters —
// wakeWaiters advances the slice wheel's clock for exactly that case.
func (s *System) finishAccess(p *pendingAccess, at config.Cycles) {
	s.fillLatency.Observe(uint64(at - p.issued))
	done := p.done
	p.done = nil
	p.cache = nil
	s.accessPool.Put(p)
	done(at)
}

// resolve classifies the probe outcome of p against its L2 and
// dispatches. p.count is false on re-attempts after a structural stall
// so statistics stay truthful.
func (s *System) resolve(p *pendingAccess) {
	now := s.sliceWheel.Now()
	cache, key, isStore := p.cache, p.key, p.isStore
	switch cache.Probe(key, isStore, p.count) {
	case probeHit:
		if isStore {
			s.logObs(cache, obsRec{kind: obsStoreHit, key: key})
		}
		s.finishAccess(p, now)

	case probeHitStoreUpgrade:
		// A store hit an Exclusive line: commit the silent E→M upgrade
		// here — through Line.SetState and the store-hit observation, exactly
		// like the completeFill path — rather than as a Probe side
		// effect invisible to the hooks.
		cache.Line(key).SetState(coherence.Modified)
		s.logObs(cache, obsRec{kind: obsStoreHit, key: key})
		s.finishAccess(p, now)

	case probeWBBufferHit:
		// The line was caught in the write-back queue before leaving the
		// chip: cancel the write back and put the line home.
		e, ok := cache.CancelWB(key)
		if !ok {
			// Probe has just found the live entry, and nothing ran since.
			panic(fmt.Sprintf("system: L2 %d lost the write-back entry for %#x between Probe and CancelWB", cache.ID(), key))
		}
		s.logObs(cache, obsRec{kind: obsWBReinstall, key: key, wbe: e})
		vKey, vState, evicted := cache.Reinstall(e)
		if evicted {
			s.handleVictim(cache, vKey, vState)
		}
		if isStore && e.State != coherence.Modified {
			// Stores to a reinstalled clean/shared line still need
			// ownership.
			p.count = false
			s.resolve(p)
			return
		}
		s.finishAccess(p, now)

	case probeHitNeedsUpgrade:
		if cache.AttachMSHR(key, true, p.completeFn) {
			cache.CountMSHRAttach()
			return // an upgrade or fill in flight will complete us
		}
		cache.AllocMSHR(key, coherence.Upgrade, true, p.completeFn)
		s.logObs(cache, obsRec{kind: obsDemandIssued, key: key, issued: p.issued})
		s.postDemandTxn(cache, key, coherence.Upgrade)

	case probeMiss:
		if cache.AttachMSHR(key, isStore, p.completeFn) {
			cache.CountMSHRAttach()
			return
		}
		if cache.WBQueueFull() || cache.MSHRFull() {
			// Structural stall: the miss blocks until a slot opens
			// ("misses to the L2 cache will be blocked and will have to
			// wait for an open slot"), re-polling every RetryBackoff.
			p.count = false
			p.stall = cache.Stall(key)
			s.sliceWheel.ScheduleCall(s.cfg.RetryBackoff, s.hRepoll, sim.EventData{Ptr: p})
			return
		}
		kind := coherence.Read
		if isStore {
			kind = coherence.RWITM
		}
		cache.CountMiss(key)
		cache.AllocMSHR(key, kind, isStore, p.completeFn)
		s.logObs(cache, obsRec{kind: obsDemandIssued, key: key, issued: p.issued})
		s.postDemandTxn(cache, key, kind)
	}
}

// repoll re-attempts a stalled miss against its L2. While its
// registration is unchanged and the cache is still full, the full probe
// would stall again with no side effect (it runs uncounted, and a tag
// miss updates no recency), so the re-poll only reschedules itself. The
// event still fires every RetryBackoff cycles, so event counts and
// same-cycle order are those of a full re-poll. Any other re-poll drops
// the registration and resolves as usual.
func (s *System) repoll(p *pendingAccess) {
	cache := p.cache
	if !cache.StallChanged(p.stall) && (cache.WBQueueFull() || cache.MSHRFull()) {
		if check := s.repollCheck; check != nil {
			check(cache, p.key)
		}
		s.sliceWheel.ScheduleCall(s.cfg.RetryBackoff, s.hRepoll, sim.EventData{Ptr: p})
		return
	}
	cache.Unstall(p.stall)
	s.resolve(p)
}

// completeFill delivers the arrived data to cache's coalesced waiters
// and resolves any store-ownership follow-up. Ownership is serialized at
// the transaction's bus combine, not at data arrival: an RWITM's stores
// complete unconditionally even if a later transaction has already
// invalidated the line (the store is ordered before that transaction in
// coherence order). Restarting in that case would let two stable
// storers invalidate each other's in-flight fills forever.
func (s *System) completeFill(cache l2Handle, key uint64, kind coherence.TxnKind) {
	at := s.sliceWheel.Now()
	s.logObs(cache, obsRec{kind: obsDemandComplete, key: key})
	loads, stores := cache.TakeWaiters(key)
	for _, w := range loads {
		w(at)
	}
	if len(stores) == 0 {
		return
	}
	if kind == coherence.RWITM {
		for _, w := range stores {
			w(at)
		}
		return
	}
	// Stores coalesced onto a Read miss still need ownership, unless the
	// fill landed Exclusive (silent upgrade).
	line := cache.Line(key)
	switch line.State() {
	case coherence.Modified:
		for _, w := range stores {
			w(at)
		}
	case coherence.Exclusive:
		line.SetState(coherence.Modified)
		s.logObs(cache, obsRec{kind: obsStoreHit, key: key})
		for _, w := range stores {
			w(at)
		}
	case coherence.Invalid:
		// The clean fill was invalidated before its data arrived; the
		// store claims the line outright. The RWITM completes its stores
		// at arrival unconditionally, so this cannot recurse.
		cache.AllocMSHR(key, coherence.RWITM, true, stores...)
		s.postDemandTxn(cache, key, coherence.RWITM)
	default: // S, SL, T: claim ownership on the bus
		cache.AllocMSHR(key, coherence.Upgrade, true, stores...)
		s.postDemandTxn(cache, key, coherence.Upgrade)
	}
}

// handleVictim is the slice-lane half of the Section 2 write-back
// policy: the victim is classified against cache (and the retry-switch
// and L3-membership oracles, both read-only on the slice lane), the
// Victim hook is logged for replay, and a queued entry posts a pump
// wake. The global-lane half lives in demand.go (handleVictimGlobal).
func (s *System) handleVictim(cache l2Handle, vKey uint64, vState coherence.State) {
	switchActive := s.policy.GatedBySwitch() && s.rswitch.ActiveNow()
	inL3 := s.l3.Contains(vKey) // oracle peek, used only for scoring
	action := cache.ProcessVictim(vKey, vState, switchActive, inL3)
	s.logObs(cache, obsRec{kind: obsVictim, key: vKey, vState: vState, vAction: action, inL3: inL3})
	if action == l2VictimQueued {
		s.logPost(cache, busPost{kind: postPump, key: vKey})
	}
}

// replayObs applies one observation record, raised at cycle at, to the
// observers in canonical order. The drain has moved their event clocks
// to at. Only global events record retries, so the retry switch still
// reads as it did when the record was raised.
func (s *System) replayObs(rec *obsRec, at config.Cycles) {
	for _, o := range s.observers {
		switch rec.kind {
		case obsStoreHit:
			o.StoreHit(at, rec.slice, rec.key)
		case obsWBReinstall:
			o.WBReinstall(at, rec.slice, rec.wbe)
		case obsDemandIssued:
			o.DemandIssued(at, rec.slice, rec.key, rec.issued)
		case obsDemandComplete:
			o.DemandComplete(at, rec.slice, rec.key)
		case obsVictim:
			o.Victim(at, rec.slice, rec.key, rec.vState, rec.vAction, rec.inL3, s.rswitch.ActiveNow())
		}
	}
}

// executePost performs one deferred bus request, raised at cycle at, in
// canonical order; address-ring arbitration sees exactly that time. A
// pump first scores its victim's write-back attempt.
func (s *System) executePost(rec *busPost, at config.Cycles) {
	switch rec.kind {
	case postDemand:
		s.startDemand(s.l2s[rec.slice], rec.key, rec.txn, at)
	case postPump:
		s.reuse.recordAttempt(rec.key)
		s.pumpWB(rec.slice, at)
	}
}
