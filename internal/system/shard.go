package system

import (
	"fmt"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/cpu"
	"cmpcache/internal/l2"
	"cmpcache/internal/sim"
	"cmpcache/internal/stats"
	"cmpcache/internal/trace"
)

// shard is one slice of the simulated chip: one L2 cache and the
// hardware threads that feed it. Its events run on the System's slice
// wheel, shared by every shard. Everything a shard event touches is
// owned by the shard alone — its L2's front end (probe, MSHRs,
// write-back queue), its threads, its access pool and its fill-latency
// histogram.
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
type shard struct {
	sys   *System
	idx   int
	cache l2Handle
	wheel *sim.Engine // the System's slice wheel

	threads    *cpu.Complex
	accessPool *sim.Pool[pendingAccess]

	// fillLatency is this shard's slice of the issue-to-completion
	// distribution; Results merges the per-shard histograms (merge order
	// cannot matter — histograms are additive).
	fillLatency stats.Histogram

	hResolve sim.Handler
	hRepoll  sim.Handler
}

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

// obsRec is one shard-context observation hook call, deferred to the
// end of its cycle.
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

// busPost is one deferred address-ring request from shard context. The
// issuing L2 is the posting slice's own cache, so the record carries
// only the request itself (a pump, the queued victim's key); the drain
// executes posts in (slice, append) order — the canonical bus
// arbitration order.
type busPost struct {
	logStamp
	kind postKind
	key  uint64
	txn  coherence.TxnKind
}

// newShard wires shard idx over streams, this shard's slice of the
// chip's per-thread streams (nil entries are idle threads).
// Construction fails if any stream's first chunk cannot be decoded.
func newShard(s *System, idx int, streams []trace.Stream) (*shard, error) {
	sh := &shard{sys: s, idx: idx, cache: s.l2s[idx], wheel: s.sliceWheel}
	sh.accessPool = sim.NewPool(func() *pendingAccess {
		p := &pendingAccess{}
		p.completeFn = func(at config.Cycles) { sh.finishAccess(p, at) }
		return p
	})
	sh.hResolve = func(d sim.EventData) { sh.resolve(d.Ptr.(*pendingAccess)) }
	sh.hRepoll = func(d sim.EventData) { sh.repoll(d.Ptr.(*pendingAccess)) }
	threads, err := cpu.New(sh.wheel, &s.cfg, idx*s.cfg.ThreadsPerL2(), streams, sh.access)
	if err != nil {
		return nil, err
	}
	sh.threads = threads
	return sh, nil
}

// size primes the shard's access pool from its trace record count and
// returns its share of the slice wheel's size.
func (sh *shard) size(traceRecs int) int {
	s := sh.sys
	perShard := s.cfg.ThreadsPerL2() * s.cfg.MaxOutstanding
	events := perShard*8 + 64
	if limit := 2*traceRecs + 64; events > limit {
		events = limit
	}
	inflight := perShard
	if inflight > traceRecs {
		inflight = traceRecs
	}
	sh.accessPool.Prime(inflight)
	return events
}

// --- log appenders (shard context only) ---

// logObs appends rec, stamped with this shard's slice, to the
// observation log while an observer is attached. A detached run logs
// nothing.
func (sh *shard) logObs(rec obsRec) {
	if len(sh.sys.observers) > 0 {
		rec.logStamp = logStamp{slice: sh.idx}
		sh.sys.obs = appendOrdered(sh.sys.obs, rec)
	}
}

// logPost appends rec, stamped with this shard's slice, to the post
// log. The drain arbitrates it at the cycle it was raised.
func (sh *shard) logPost(rec busPost) {
	rec.logStamp = logStamp{slice: sh.idx}
	sh.sys.posts = appendOrdered(sh.sys.posts, rec)
}

// postDemandTxn defers a demand transaction's address-ring arbitration
// to the end of the cycle.
func (sh *shard) postDemandTxn(key uint64, kind coherence.TxnKind) {
	sh.logPost(busPost{kind: postDemand, key: key, txn: kind})
}

// --- the L2 front end (shard context) ---

// access is the shard's cpu issue path: one thread reference enters the
// hierarchy. The request crosses the core interface unit, reserves an
// L2 slice port and resolves against the tag array; hits complete at
// the Table 3 L2 latency, everything else becomes a bus transaction.
func (sh *shard) access(op trace.Op, key uint64, done func(config.Cycles)) {
	p := sh.accessPool.Get()
	p.sh = sh
	p.key = key
	p.issued = sh.wheel.Now()
	p.done = done
	p.isStore = op == trace.Store
	p.count = true
	// The port is booked for the cycle the request reaches the slice
	// (issue + CoreToL2); booking it from the issue event keeps
	// reservations time-ordered while avoiding an intermediate event.
	cfg := &sh.sys.cfg
	start := sh.cache.ReservePort(key, sh.wheel.Now()+cfg.CoreToL2)
	sh.wheel.AtCall(start+cfg.L2Access, sh.hResolve, sim.EventData{Ptr: p})
}

// finishAccess completes a pending access: the issue-to-completion
// latency is recorded, the node returns to the pool and the thread's
// completion callback runs (which may synchronously issue new work that
// reuses the node). Called from shard context at delivery time, and
// from the global lane when a bus commit wakes coalesced waiters —
// wakeWaiters advances the slice wheel's clock for exactly that case.
func (sh *shard) finishAccess(p *pendingAccess, at config.Cycles) {
	sh.fillLatency.Observe(uint64(at - p.issued))
	done := p.done
	p.done = nil
	p.sh = nil
	sh.accessPool.Put(p)
	done(at)
}

// resolve classifies the probe outcome and dispatches. p.count is false
// on re-attempts after a structural stall so statistics stay truthful.
func (sh *shard) resolve(p *pendingAccess) {
	s := sh.sys
	now := sh.wheel.Now()
	cache, key, isStore := sh.cache, p.key, p.isStore
	switch cache.Probe(key, isStore, p.count) {
	case probeHit:
		if isStore {
			sh.logObs(obsRec{kind: obsStoreHit, key: key})
		}
		sh.finishAccess(p, now)

	case probeHitStoreUpgrade:
		// A store hit an Exclusive line: commit the silent E→M upgrade
		// here — through SetState and the store-hit observation, exactly
		// like the completeFill path — rather than as a Probe side
		// effect invisible to the hooks.
		cache.SetState(key, coherence.Modified)
		sh.logObs(obsRec{kind: obsStoreHit, key: key})
		sh.finishAccess(p, now)

	case probeWBBufferHit:
		// The line was caught in the write-back queue before leaving the
		// chip: cancel the write back and put the line home.
		e, ok := cache.CancelWB(key)
		if !ok {
			// Probe has just found the live entry, and nothing ran since.
			panic(fmt.Sprintf("system: L2 %d lost the write-back entry for %#x between Probe and CancelWB", cache.ID(), key))
		}
		sh.logObs(obsRec{kind: obsWBReinstall, key: key, wbe: e})
		vKey, vState, evicted := cache.Reinstall(e)
		if evicted {
			sh.handleVictim(vKey, vState)
		}
		if isStore && e.State != coherence.Modified {
			// Stores to a reinstalled clean/shared line still need
			// ownership.
			p.count = false
			sh.resolve(p)
			return
		}
		sh.finishAccess(p, now)

	case probeHitNeedsUpgrade:
		if cache.AttachMSHR(key, true, p.completeFn) {
			cache.CountMSHRAttach()
			return // an upgrade or fill in flight will complete us
		}
		cache.AllocMSHR(key, coherence.Upgrade)
		cache.AttachMSHR(key, true, p.completeFn)
		sh.logObs(obsRec{kind: obsDemandIssued, key: key, issued: p.issued})
		sh.postDemandTxn(key, coherence.Upgrade)

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
			sh.wheel.ScheduleCall(s.cfg.RetryBackoff, sh.hRepoll, sim.EventData{Ptr: p})
			return
		}
		kind := coherence.Read
		if isStore {
			kind = coherence.RWITM
		}
		cache.CountMiss(key)
		cache.AllocMSHR(key, kind)
		cache.AttachMSHR(key, isStore, p.completeFn)
		sh.logObs(obsRec{kind: obsDemandIssued, key: key, issued: p.issued})
		sh.postDemandTxn(key, kind)
	}
}

// repoll re-attempts a stalled miss. While its registration is
// unchanged and the cache is still full, the full probe would stall
// again with no side effect (it runs uncounted, and a tag miss updates
// no recency), so the re-poll only reschedules itself. The event still
// fires every RetryBackoff cycles, so event counts and same-cycle order
// are those of a full re-poll. Any other re-poll drops the registration
// and resolves as usual.
func (sh *shard) repoll(p *pendingAccess) {
	cache := sh.cache
	if !cache.StallChanged(p.stall) && (cache.WBQueueFull() || cache.MSHRFull()) {
		if check := sh.sys.repollCheck; check != nil {
			check(cache, p.key)
		}
		sh.wheel.ScheduleCall(sh.sys.cfg.RetryBackoff, sh.hRepoll, sim.EventData{Ptr: p})
		return
	}
	cache.Unstall(p.stall)
	sh.resolve(p)
}

// completeFill delivers the arrived data to the coalesced waiters and
// resolves any store-ownership follow-up. Ownership is serialized at
// the transaction's bus combine, not at data arrival: an RWITM's stores
// complete unconditionally even if a later transaction has already
// invalidated the line (the store is ordered before that transaction in
// coherence order). Restarting in that case would let two stable
// storers invalidate each other's in-flight fills forever.
func (sh *shard) completeFill(key uint64, kind coherence.TxnKind) {
	cache := sh.cache
	at := sh.wheel.Now()
	sh.logObs(obsRec{kind: obsDemandComplete, key: key})
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
	switch cache.State(key) {
	case coherence.Modified:
		for _, w := range stores {
			w(at)
		}
	case coherence.Exclusive:
		cache.SetState(key, coherence.Modified)
		sh.logObs(obsRec{kind: obsStoreHit, key: key})
		for _, w := range stores {
			w(at)
		}
	case coherence.Invalid:
		// The clean fill was invalidated before its data arrived; the
		// store claims the line outright. The RWITM completes its stores
		// at arrival unconditionally, so this cannot recurse.
		cache.AllocMSHR(key, coherence.RWITM)
		for _, w := range stores {
			cache.AttachMSHR(key, true, w)
		}
		sh.postDemandTxn(key, coherence.RWITM)
	default: // S, SL, T: claim ownership on the bus
		cache.AllocMSHR(key, coherence.Upgrade)
		for _, w := range stores {
			cache.AttachMSHR(key, true, w)
		}
		sh.postDemandTxn(key, coherence.Upgrade)
	}
}

// handleVictim is the shard-context half of the Section 2 write-back
// policy: the victim is classified against the shard's own L2 (and the
// retry-switch and L3-membership oracles, both read-only on the slice
// lane), the Victim hook is logged for replay, and a queued entry posts
// a pump wake. The global-context half lives in demand.go
// (handleVictimGlobal).
func (sh *shard) handleVictim(vKey uint64, vState coherence.State) {
	s := sh.sys
	switchActive := s.policy.GatedBySwitch() && s.rswitch.ActiveNow()
	inL3 := s.l3.Contains(vKey) // oracle peek, used only for scoring
	action := sh.cache.ProcessVictim(vKey, vState, switchActive, inL3)
	sh.logObs(obsRec{kind: obsVictim, key: vKey, vState: vState, vAction: action, inL3: inL3})
	if action == l2VictimQueued {
		sh.logPost(busPost{kind: postPump, key: vKey})
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
