// Package txlat is the per-transaction latency attribution layer: it
// stamps every demand miss and write back at its lifecycle stage
// boundaries and accumulates the per-stage cycle costs into log-bucketed
// histograms keyed by (transaction kind × outcome × mechanism state),
// plus a top-K reservoir of the slowest transactions with their full
// stage vectors.
//
// Stages follow the protocol's actual event chain. A demand miss runs
//
//	issue → MSHR allocate/bus start   (StageFrontend: port + tag access,
//	                                   structural-stall retry backoff)
//	      → combined response          (StageArb: address-ring arbitration
//	                                   + address phase; re-arbitrations
//	                                   after upgrade restarts accumulate)
//	      → source data ready          (StageSource: peer-L2 intervention,
//	                                   L3 array or memory access)
//	      → data delivered             (StageXfer: data-ring wait +
//	                                   occupancy)
//
// and a write back runs
//
//	victim queued → bus issue          (StageWBQueue: castout-machine wait)
//	             → combined response   (StageArb)
//	retry backoff → re-issue           (StageWBRetry: accumulates across
//	                                   every retry round)
//	combine → L3 array retirement      (StageWBL3: data ring + L3 slice +
//	                                   array write, to-L3 dispositions)
//
// Like the metrics probe and the invariant auditor, the collector is an
// observer (internal/observe): hooks never schedule events or touch
// simulation state, so attached and detached runs are bit-identical in
// event sequence and results. A system with nothing attached skips each
// commit point on one length check (the detached-run allocation pin,
// TestDetachedRunAllocs, enforces this stays free).
package txlat

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/observe"
	"cmpcache/internal/stats"
)

// Stage indexes one lifecycle segment of a transaction.
type Stage uint8

const (
	// StageFrontend: demand issue to bus start — core-to-L2 transit, tag
	// access, and any structural-stall retry backoff (MSHR or write-back
	// queue full).
	StageFrontend Stage = iota
	// StageArb: address-ring arbitration wait plus the address/snoop
	// phase, up to the combined response. Re-arbitrations (upgrade
	// restarts, write-back retries re-issuing) accumulate here.
	StageArb
	// StageSource: combined response to source data ready — the peer-L2,
	// L3 or memory access supplying the line.
	StageSource
	// StageXfer: data-ring wait and occupancy delivering the line.
	StageXfer
	// StageWBQueue: victim enqueued to first bus issue (and any
	// post-requeue wait that is not retry backoff).
	StageWBQueue
	// StageWBRetry: retry combined-response to the entry's next bus
	// issue — the backoff plus head-of-queue wait, summed over rounds.
	StageWBRetry
	// StageWBL3: write-back combine to L3 array retirement (data ring,
	// L3 slice wait, array write) for to-L3 dispositions.
	StageWBL3

	NumStages
)

var stageNames = [NumStages]string{
	"frontend", "arb", "source", "xfer", "wb_queue", "wb_retry", "wb_l3",
}

// String returns the stage's report name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// demandStages and wbStages list which stage slots each transaction
// class exercises; zero-valued stages of the class are still observed so
// every stage histogram in a group has the group's full sample count.
var (
	demandStages = []Stage{StageFrontend, StageArb, StageSource, StageXfer}
	wbStages     = []Stage{StageWBQueue, StageArb, StageWBRetry, StageWBL3}
)

// Outcome is how a transaction resolved: the fill source for demand
// transactions, the disposition for write backs.
type Outcome uint8

const (
	// OutNone: no data transfer (ownership upgrades).
	OutNone Outcome = iota
	// OutPeer: filled by a peer-L2 intervention.
	OutPeer
	// OutL3: filled from the off-chip L3 victim cache.
	OutL3
	// OutMem: filled from memory.
	OutMem
	// OutWBToL3: write back accepted and retired into the L3 (including
	// snarf fallbacks that still held the queue token).
	OutWBToL3
	// OutWBSquashL3: clean write back squashed — line already in the L3.
	OutWBSquashL3
	// OutWBSquashPeer: squashed by a peer holding an identical copy.
	OutWBSquashPeer
	// OutWBSnarf: absorbed L2-to-L2 by the elected snarf winner.
	OutWBSnarf
	// OutWBCancelled: a demand access reclaimed the line first.
	OutWBCancelled

	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	"none", "peer", "l3", "mem", "to-l3", "squash-l3", "squash-peer", "snarf", "cancelled",
}

// String returns the outcome's report name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome?"
}

// outcomeForSource maps a demand combined-response data source.
func outcomeForSource(src coherence.Source) Outcome {
	switch src {
	case coherence.SourcePeerL2:
		return OutPeer
	case coherence.SourceL3:
		return OutL3
	case coherence.SourceMemory:
		return OutMem
	default:
		return OutNone
	}
}

// Config parameterizes a Collector.
type Config struct {
	// TopK bounds the slowest-transactions reservoir; <= 0 selects
	// DefaultTopK.
	TopK int
	// Interval, when positive, additionally bins committed transactions
	// into fixed windows and records per-window latency quantiles (the
	// time-resolved view examples/retrystorm overlays against the retry
	// switch). Zero disables windowing, and Tick then does nothing.
	Interval config.Cycles
}

// DefaultTopK is the default slowest-transactions reservoir size.
const DefaultTopK = 16

// groupKey identifies one latency population.
type groupKey struct {
	kind     coherence.TxnKind
	out      Outcome
	switchOn bool
}

// group accumulates one population's distributions.
type group struct {
	total stats.Histogram
	// service excludes the frontend stage (issue-to-MSHR-allocation
	// wait): it is the transaction's latency from bus arbitration
	// onward, the contention-comparable counterpart of the paper's
	// Table 3 load latencies.
	service stats.Histogram
	stages  [NumStages]stats.Histogram
}

// open is one in-flight transaction's stage record.
type open struct {
	start    config.Cycles
	last     config.Cycles
	kind     coherence.TxnKind
	out      Outcome
	switchOn bool
	wb       bool
	retrying bool
	l2       int8
	key      uint64
	stages   [NumStages]uint64
}

// openKey addresses an in-flight record: at most one demand transaction
// and one queued write back exist per (L2, line) at any instant.
type openKey struct {
	key uint64
	l2  int8
	wb  bool
}

// Collector gathers stage-attributed latency for one run. Like the
// metrics probe it is single-use and not safe for concurrent use.
type Collector struct {
	observe.Base
	topK int

	opens    map[openKey]*open
	freeList []*open

	// retireWait holds to-L3 write backs between bus combine and L3
	// array retirement, FIFO per line key (concurrent same-key retires
	// are rare but legal — two caches cast out the same clean line).
	retireWait map[uint64][]*open

	groups map[groupKey]*group
	keys   []groupKey // insertion order, sorted at Finish

	slowest []SlowTxn // min-heap on Total, capped at topK

	// Windowing: win cuts the run at Config.Interval, and winDemand and
	// winWB hold the open window's latencies.
	win       observe.Windows
	winDemand stats.Histogram
	winWB     stats.Histogram
	windows   []Window

	dropped  uint64 // records overwritten while still open (lost txns)
	finished bool
	report   Report
}

// New returns a collector with the given configuration.
func New(cfg Config) *Collector {
	k := cfg.TopK
	if k <= 0 {
		k = DefaultTopK
	}
	c := &Collector{
		topK:       k,
		opens:      make(map[openKey]*open),
		retireWait: make(map[uint64][]*open),
		groups:     make(map[groupKey]*group),
	}
	c.win = observe.NewWindows(cfg.Interval, c.emitWindow)
	return c
}

// Tick closes every window whose end the simulation clock has reached;
// a collector without windows does nothing.
func (c *Collector) Tick(now config.Cycles) { c.win.Tick(now) }

func (c *Collector) emitWindow(k int, start, end config.Cycles) {
	c.windows = append(c.windows, Window{
		Window:    k,
		Start:     start,
		End:       end,
		Demand:    c.winDemand.Summary(),
		WriteBack: c.winWB.Summary(),
	})
	c.winDemand.Reset()
	c.winWB.Reset()
}

// --- record management ---

func (c *Collector) get(k openKey) (*open, bool) {
	o, ok := c.opens[k]
	return o, ok
}

// create returns a fresh record bound to k, recycling committed nodes.
// An existing open record under the same key is dropped (counted): the
// new transaction supersedes it.
func (c *Collector) create(k openKey, now config.Cycles) *open {
	if _, ok := c.opens[k]; ok {
		c.dropped++
	}
	var o *open
	if n := len(c.freeList); n > 0 {
		o = c.freeList[n-1]
		c.freeList = c.freeList[:n-1]
		*o = open{}
	} else {
		o = &open{}
	}
	o.start, o.last = now, now
	o.l2, o.key, o.wb = k.l2, k.key, k.wb
	c.opens[k] = o
	return o
}

func (c *Collector) release(k openKey, o *open) {
	delete(c.opens, k)
	c.freeList = append(c.freeList, o)
}

// commit folds a finished record into its group, the window bins and
// the slowest reservoir, then recycles it. detach says whether the
// record is still in the opens map.
func (c *Collector) commit(k openKey, o *open, now config.Cycles, detached bool) {
	total := uint64(now - o.start)
	gk := groupKey{kind: o.kind, out: o.out, switchOn: o.switchOn}
	g := c.groups[gk]
	if g == nil {
		g = &group{}
		c.groups[gk] = g
		c.keys = append(c.keys, gk)
	}
	g.total.Observe(total)
	g.service.Observe(total - o.stages[StageFrontend])
	list := demandStages
	if o.wb {
		list = wbStages
	}
	for _, st := range list {
		g.stages[st].Observe(o.stages[st])
	}
	if o.wb {
		c.winWB.Observe(total)
	} else {
		c.winDemand.Observe(total)
	}
	c.offerSlowest(o, now, total)
	if detached {
		c.freeList = append(c.freeList, o)
	} else {
		c.release(k, o)
	}
}

// offerSlowest maintains the top-K reservoir as a min-heap on Total.
func (c *Collector) offerSlowest(o *open, end config.Cycles, total uint64) {
	if len(c.slowest) >= c.topK && total <= c.slowest[0].Total {
		return
	}
	tx := SlowTxn{
		Kind:         o.kind.String(),
		Outcome:      o.out.String(),
		SwitchActive: o.switchOn,
		WriteBack:    o.wb,
		L2:           int(o.l2),
		Key:          o.key,
		Start:        o.start,
		End:          end,
		Total:        total,
	}
	list := demandStages
	if o.wb {
		list = wbStages
	}
	tx.Stages = make(map[string]uint64, len(list))
	for _, st := range list {
		tx.Stages[st.String()] = o.stages[st]
	}
	if len(c.slowest) < c.topK {
		c.slowest = append(c.slowest, tx)
		c.siftUp(len(c.slowest) - 1)
		return
	}
	c.slowest[0] = tx
	c.siftDown(0)
}

func (c *Collector) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if c.slowest[p].Total <= c.slowest[i].Total {
			return
		}
		c.slowest[p], c.slowest[i] = c.slowest[i], c.slowest[p]
		i = p
	}
}

func (c *Collector) siftDown(i int) {
	n := len(c.slowest)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && c.slowest[l].Total < c.slowest[m].Total {
			m = l
		}
		if r < n && c.slowest[r].Total < c.slowest[m].Total {
			m = r
		}
		if m == i {
			return
		}
		c.slowest[i], c.slowest[m] = c.slowest[m], c.slowest[i]
		i = m
	}
}

// --- demand hooks ---

// DemandIssued opens a demand record when a miss (or upgrade-needed
// hit) allocates its MSHR: issued is the thread's original issue cycle,
// so the frontend stage covers core-to-L2 transit, the tag probe and
// any structural-stall backoff before the transaction could start.
func (c *Collector) DemandIssued(now config.Cycles, idx int, key uint64, issued config.Cycles) {
	o := c.create(openKey{key: key, l2: int8(idx)}, now)
	// The record starts at the thread's issue cycle, not the MSHR
	// allocation, so the total is the latency the thread observed and
	// the stage vector sums to it exactly.
	o.start = issued
	o.stages[StageFrontend] = uint64(now - issued)
}

// DemandStart records address-ring arbitration for a demand transaction
// (initial issue, upgrade restarts and post-fill ownership claims all
// arbitrate through here; a missing record — the follow-up transaction
// cases — opens one).
func (c *Collector) DemandStart(now config.Cycles, idx int, key uint64, kind coherence.TxnKind, switchOn bool, combineAt config.Cycles) {
	k := openKey{key: key, l2: int8(idx)}
	o, ok := c.get(k)
	if !ok {
		o = c.create(k, now)
	}
	o.kind = kind
	o.switchOn = switchOn // restarts reclassify under the final state
	o.stages[StageArb] += uint64(combineAt - now)
	o.last = combineAt
}

// DemandCombine records the combined response's chosen data source. An
// upgrade moves no data, so its outcome stays OutNone.
func (c *Collector) DemandCombine(now config.Cycles, idx int, key uint64, kind coherence.TxnKind, out coherence.Outcome) {
	if o, ok := c.get(openKey{key: key, l2: int8(idx)}); ok && kind != coherence.Upgrade {
		o.out = outcomeForSource(out.Source)
		o.last = now
	}
}

// DemandSourceReady closes the source-access stage: the line is ready
// to leave its supplier (peer L2, L3 slice or memory bank).
func (c *Collector) DemandSourceReady(now config.Cycles, idx int, key uint64) {
	if o, ok := c.get(openKey{key: key, l2: int8(idx)}); ok {
		o.stages[StageSource] += uint64(now - o.last)
		o.last = now
	}
}

// DemandComplete commits a demand transaction at data delivery.
func (c *Collector) DemandComplete(now config.Cycles, idx int, key uint64) {
	k := openKey{key: key, l2: int8(idx)}
	if o, ok := c.get(k); ok {
		o.stages[StageXfer] += uint64(now - o.last)
		c.commit(k, o, now, false)
	}
}

// Upgrade commits an ownership claim at its combined response, as it
// moves no data; a restarted claim stays open and re-arbitrates as an
// RWITM.
func (c *Collector) Upgrade(now config.Cycles, idx int, key uint64, restarted, _ bool, _ coherence.State) {
	if !restarted {
		c.DemandComplete(now, idx, key)
	}
}

// --- write-back hooks ---

// Victim opens a write-back record when the victim enters the castout
// queue, as a dirty write back when the line was dirty.
func (c *Collector) Victim(now config.Cycles, idx int, key uint64, st coherence.State, action l2.VictimAction, _, switchOn bool) {
	if action != l2.VictimQueued {
		return
	}
	o := c.create(openKey{key: key, l2: int8(idx), wb: true}, now)
	o.wb = true
	o.kind = coherence.CleanWB
	if st.Dirty() {
		o.kind = coherence.DirtyWB
	}
	o.switchOn = switchOn
}

// WBIssued records a write back winning the castout machine and
// arbitrating for the address ring. Queue wait (or, after a retry, the
// backoff round) closes here; the arbitration stage runs to combineAt.
func (c *Collector) WBIssued(now config.Cycles, idx int, key uint64, combineAt config.Cycles) {
	o, ok := c.get(openKey{key: key, l2: int8(idx), wb: true})
	if !ok {
		return
	}
	if o.retrying {
		o.stages[StageWBRetry] += uint64(now - o.last)
		o.retrying = false
	} else {
		o.stages[StageWBQueue] += uint64(now - o.last)
	}
	o.stages[StageArb] += uint64(combineAt - now)
	o.last = combineAt
}

// WBRetry marks a retried combined response: cycles until the entry's
// next bus issue are attributed to the retry stage.
func (c *Collector) WBRetry(now config.Cycles, idx int, key uint64) {
	if o, ok := c.get(openKey{key: key, l2: int8(idx), wb: true}); ok {
		o.retrying = true
		o.last = now
	}
}

// WBReinstall commits a write back that a demand access reclaimed while
// it was still queued. One already on the bus commits at its combined
// response (WBCancelled).
func (c *Collector) WBReinstall(now config.Cycles, idx int, e l2.WBEntry) {
	k := openKey{key: e.Key, l2: int8(idx), wb: true}
	if o, ok := c.get(k); ok && !e.InFlight {
		o.stages[StageWBQueue] += uint64(now - o.last)
		o.out = OutWBCancelled
		c.commit(k, o, now, false)
	}
}

// WBInvalidated commits a queued write back that a peer's invalidating
// demand cancelled, like WBReinstall.
func (c *Collector) WBInvalidated(now config.Cycles, idx int, e l2.WBEntry) {
	c.WBReinstall(now, idx, e)
}

// WBCancelled commits a write back whose bus transaction a demand
// access had cancelled.
func (c *Collector) WBCancelled(now config.Cycles, idx int, key uint64, _ bool) {
	c.wbDone(now, idx, key, OutWBCancelled)
}

// WBSquashed commits a write back squashed by the L3 or by a peer.
func (c *Collector) WBSquashed(now config.Cycles, idx int, e l2.WBEntry, byL3 bool, _ int) {
	out := OutWBSquashPeer
	if byL3 {
		out = OutWBSquashL3
	}
	c.wbDone(now, idx, e.Key, out)
}

// WBSnarfed commits a write back a peer L2 absorbed.
func (c *Collector) WBSnarfed(now config.Cycles, idx int, e l2.WBEntry, _ int, _ uint64, _ bool) {
	c.wbDone(now, idx, e.Key, OutWBSnarf)
}

// wbDone commits a write back that finished at its combined response.
func (c *Collector) wbDone(now config.Cycles, idx int, key uint64, out Outcome) {
	k := openKey{key: key, l2: int8(idx), wb: true}
	if o, ok := c.get(k); ok {
		o.out = out
		c.commit(k, o, now, false)
	}
}

// WBToL3 moves an accepted write back into the retirement-wait set; the
// record commits at L3 array retirement (L3Retire).
func (c *Collector) WBToL3(now config.Cycles, idx int, e l2.WBEntry) {
	k := openKey{key: e.Key, l2: int8(idx), wb: true}
	o, ok := c.get(k)
	if !ok {
		return
	}
	o.out = OutWBToL3
	o.last = now
	delete(c.opens, k)
	c.retireWait[e.Key] = append(c.retireWait[e.Key], o)
}

// L3Retire commits the oldest retirement-waiting write back of key at
// its L3 array write.
func (c *Collector) L3Retire(now config.Cycles, key uint64, _ coherence.TxnKind, _ uint64, _ bool) {
	q := c.retireWait[key]
	if len(q) == 0 {
		return
	}
	o := q[0]
	if len(q) == 1 {
		delete(c.retireWait, key)
	} else {
		c.retireWait[key] = q[1:]
	}
	o.stages[StageWBL3] += uint64(now - o.last)
	c.commit(openKey{}, o, now, true)
}

// Finish closes any remaining window, freezes the report and returns
// it. Idempotent. end is the run's final cycle.
func (c *Collector) Finish(end config.Cycles) *Report {
	if c.finished {
		return &c.report
	}
	c.finished = true
	c.win.Finish(end)
	c.report = c.buildReport()
	return &c.report
}
