// Package system wires the full chip multiprocessor of Figure 1 —
// sixteen SMT threads, four sliced L2 caches, the snoop-collecting ring,
// the off-chip L3 victim cache and the memory controller — and
// orchestrates every coherence transaction end to end under the
// configured write-back management mechanism.
//
// The protocol sequencing model: a transaction's snoop, combine and
// state transitions all occur atomically at its combined-response event
// (tag arrays are therefore never in transient states), while data
// movement books latency and bandwidth on the ring, L3 and memory
// resources and completes the requesting thread later. This is the
// standard state-at-commit simplification for bus-serialized protocols;
// the cycle cost of in-flight windows is preserved, only their
// observability is collapsed.
//
// Execution is partitioned by L2 slice: every slice's front end
// (threads, tag probes, MSHRs, write-back queue) runs on one shared
// slice wheel, and the bus FIFO — the chip's only global ordering point
// — lives on a global wheel. An event loop runs the two wheels one
// cycle at a time and hands each cycle's bus posts and observations
// from the slices to the global side in slice order, which fixes the
// event order every Results byte depends on (see loop.go and DESIGN.md
// §15).
//
// The instruments that read a run (the metrics probe, its event trace,
// the shadow auditor and the latency collector) attach as one list of
// observe.Observers, which every protocol commit point calls in turn;
// a detached run's list is empty.
package system

import (
	"context"
	"fmt"

	"cmpcache/internal/audit"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
	"cmpcache/internal/cpu"
	"cmpcache/internal/l2"
	"cmpcache/internal/l3"
	"cmpcache/internal/mem"
	"cmpcache/internal/metrics"
	"cmpcache/internal/observe"
	"cmpcache/internal/ring"
	"cmpcache/internal/sim"
	"cmpcache/internal/stats"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/wbpolicy"
)

// System is one fully wired simulated chip.
type System struct {
	cfg        config.Config
	engine     *sim.Engine // global wheel: bus combines and everything behind them
	sliceWheel *sim.Engine // every L2 slice's front-end events

	// threads is every chip thread, each issuing into its L2's front end
	// (access) on the slice wheel. accessPool holds the pending-access
	// nodes, and fillLatency their issue-to-completion times.
	threads     *cpu.Complex
	accessPool  *sim.Pool[pendingAccess]
	fillLatency stats.Histogram

	// obs and posts are the slice lane's deferred observations and bus
	// requests of the current cycle, each in (slice, append) order,
	// drained at the end of the slice lane's cycle (see logStamp).
	obs   []obsRec
	posts []busPost

	l2s       []*l2.Cache
	l3        *l3.Cache
	mem       *mem.Controller
	ring      *ring.Ring
	collector *coherence.Collector
	rswitch   *core.RetrySwitch

	// policy is the configured write-back policy, shared with every
	// l2.Cache, which calls its per-L2 hooks with its own index.
	policy wbpolicy.Policy

	wbInFlight []bool // one write-back bus transaction at a time per L2

	// reuse is the per-line write-back history: Table 2's reuse scoring
	// and, for Table 1's diagnostics, whether a line has ever completed
	// an L3 insert — splitting non-redundant clean write backs into
	// first-time writes (cleanWBFirst) vs. lines the L3 has since lost
	// (cleanWBLost).
	reuse        *reuseTracker
	cleanWBFirst uint64
	cleanWBLost  uint64

	// responses is the reused snoop-response buffer for combine events
	// (the collector never retains it).
	responses []coherence.AgentResponse

	// Event handlers, bound once in newCore so scheduling an access or
	// a transaction phase never allocates a closure.
	hResolve        sim.Handler
	hRepoll         sim.Handler
	hCombineDemand  sim.Handler
	hFillReady      sim.Handler
	hCompleteFill   sim.Handler
	hCombineWB      sim.Handler
	hFinishWB       sim.Handler
	hWBArriveL3     sim.Handler
	hRetireL3Write  sim.Handler
	hReleaseL3Token sim.Handler

	// observers are the attached instruments, each commit point calling
	// every one in turn; a detached run's list is empty, so a commit
	// point costs one length check. attached keeps the instruments for
	// the end-of-run Finish and Drain calls, and creditedFired counts
	// the slice-wheel events already credited through AdvanceEvents.
	observers     []observe.Observer
	attached      Attachments
	creditedFired uint64

	// repollCheck, set only by tests, is called on every re-poll that
	// skips the probe (see System.repoll) to check that the full probe
	// would have stalled.
	repollCheck func(c *l2.Cache, key uint64)

	// System-level counters (component-level ones live in the
	// components).
	fillsFromPeer   uint64
	fillsFromL3     uint64
	fillsFromMem    uint64
	upgrades        uint64
	upgradeUpdates  uint64 // upgrades that updated sharers in place (hybridui)
	updatePushes    uint64 // update commits that pushed data to surviving sharers
	demandTxns      uint64
	wbTxns          uint64
	wbSquashedByL3  uint64
	wbSquashedPeer  uint64
	wbSnarfed       uint64
	wbToL3          uint64
	wbRetried       uint64
	wbCancelled     uint64
	snarfFallbacks  uint64 // winner could not install after all
	upgradeRestarts uint64 // upgrade found its line invalidated; became RWITM
}

// newCore builds everything but the thread feed: components, policy,
// the access pool and the bound event handlers. NewStream attaches the
// threads.
func newCore(cfg config.Config) *System {
	s := &System{
		cfg:        cfg,
		engine:     sim.NewEngine(),
		sliceWheel: sim.NewEngine(),
		l3:         l3.New(&cfg),
		mem:        mem.New(&cfg),
		ring:       ring.New(&cfg),
		collector:  coherence.NewCollector(),
		rswitch:    core.NewRetrySwitch(cfg.WBHT),
		reuse:      newReuseTracker(),
	}
	s.policy = wbpolicy.New(&s.cfg)
	for i := 0; i < cfg.NumL2(); i++ {
		s.l2s = append(s.l2s, l2.New(i, &s.cfg, s.policy))
	}
	s.wbInFlight = make([]bool, cfg.NumL2())
	s.responses = make([]coherence.AgentResponse, 0, cfg.NumL2()+2)
	s.accessPool = sim.NewPool(func() *pendingAccess {
		p := &pendingAccess{}
		p.completeFn = func(at config.Cycles) { s.finishAccess(p, at) }
		return p
	})

	s.hResolve = func(d sim.EventData) { s.resolve(d.Ptr.(*pendingAccess)) }
	s.hRepoll = func(d sim.EventData) { s.repoll(d.Ptr.(*pendingAccess)) }
	s.hCombineDemand = func(d sim.EventData) {
		s.combineDemand(d.Ptr.(l2Handle), d.Key, coherence.TxnKind(d.Kind))
	}
	s.hFillReady = s.fillDataReady
	s.hCompleteFill = func(d sim.EventData) {
		s.completeFill(d.Ptr.(l2Handle), d.Key, coherence.TxnKind(d.Kind))
	}
	s.hCombineWB = func(d sim.EventData) {
		s.combineWB(d.Ptr.(l2Handle), d.Key, coherence.TxnKind(d.Kind), d.Flag)
	}
	s.hFinishWB = func(d sim.EventData) { s.finishWB(int(d.Key)) }
	s.hWBArriveL3 = s.wbArriveL3
	s.hRetireL3Write = func(d sim.EventData) { s.retireL3Write(d.Key, coherence.TxnKind(d.Kind)) }
	s.hReleaseL3Token = func(sim.EventData) { s.releaseL3Token() }
	return s
}

// NewStream validates cfg and src, builds all components and feeds each
// hardware thread from its chunked per-thread stream
// (trace.Source.Stream), so replay memory is bounded by the source's
// chunk size rather than the trace length. An in-memory trace enters as
// a trace.MemSource. Run() executes the workload to completion.
func NewStream(cfg config.Config, src trace.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src.Threads() <= 0 {
		return nil, fmt.Errorf("system: source has %d threads, must be positive", src.Threads())
	}
	if src.Threads() > cfg.Threads() {
		return nil, fmt.Errorf("system: trace has %d threads, chip has %d", src.Threads(), cfg.Threads())
	}
	s := newCore(cfg)

	// clamp converts a record count to the int sizing hints expect,
	// saturating at 2^30 so a hint fits a 32-bit int. Every hint is
	// capped far below that, so the saturation changes no sizing.
	clamp := func(n int64) int { return int(min(n, 1<<30)) }
	// One stream per chip thread, and one L2 per chip thread in
	// threadL2: thread tid feeds L2 tid/ThreadsPerL2. Threads without
	// records keep a nil (idle) stream. Each L2's threads size the slice
	// wheel and the access pool from their record count.
	tpl := cfg.ThreadsPerL2()
	streams := make([]trace.Stream, cfg.Threads())
	threadL2 := make([]*l2.Cache, cfg.Threads())
	perL2 := tpl * cfg.MaxOutstanding
	sliceEvents, inflight := 0, 0
	for i, cache := range s.l2s {
		var recs int64
		for tid := i * tpl; tid < (i+1)*tpl; tid++ {
			threadL2[tid] = cache
			if tid >= src.Threads() {
				continue
			}
			if n := src.ThreadRecords(tid); n > 0 {
				streams[tid] = src.Stream(tid)
				recs += n
			}
		}
		sliceEvents += min(perL2*8+64, clamp(2*recs+64))
		inflight += min(perL2, clamp(recs))
	}
	threads, err := cpu.New(s.sliceWheel, &s.cfg, streams,
		func(tid int, op trace.Op, key uint64, done func(config.Cycles)) {
			s.access(threadL2[tid], op, key, done)
		})
	if err != nil {
		return nil, err
	}
	s.threads = threads
	s.sliceWheel.Grow(sliceEvents)
	s.accessPool.Prime(inflight)

	// Pre-size the global event queue from the workload: its high-water
	// mark tracks in-flight bus transactions, bounded by what the trace
	// can ever put in flight at once.
	events := cfg.Threads()*cfg.MaxOutstanding*4 + 64
	if limit := clamp(2*src.Records() + 64); events > limit {
		events = limit
	}
	s.engine.Grow(events)
	return s, nil
}

// Attachments bundles the observation-only instruments a run can carry;
// any subset (including none) may be set, and all compose. Each is an
// observe.Observer: the system calls its observer list at every commit
// point, so instruments never perturb the simulation and a detached run
// pays one length check per commit point.
type Attachments struct {
	// Probe samples the interval metrics series: the event loop's cycle
	// tick drives its windows, and Run's results carry the completed
	// series. Windows close at the tick before a cycle's first event,
	// after every event strictly before the window's end has fired.
	Probe *metrics.Probe
	// Auditor is the shadow invariant checker: the event loop drives its
	// periodic sweeps (per global event, and per slice-lane cycle for
	// that cycle's slice events), and the protocol commit points call its
	// semantic hooks — directly from global context, through the replay
	// at the end of each slice-lane cycle from the slice lane.
	Auditor *audit.Auditor
	// Latency is the per-transaction latency collector: the demand and
	// write-back commit points stamp every transaction's stage boundaries
	// into it, and Results.Latency carries the finished report. A
	// windowed collector's windows close at the event loop's cycle tick.
	// One collector per run.
	Latency *txlat.Collector
}

// Attach installs each non-nil instrument in a, so separate calls
// compose: each call appends to the observer list the probe, its trace
// writer, the auditor and the collector, in that order. Attach before
// Run.
func (s *System) Attach(a Attachments) {
	if p := a.Probe; p != nil {
		s.attached.Probe = p
		p.Bind(s.sampleMetrics)
		s.observers = append(s.observers, p)
		if tw := p.Trace(); tw != nil {
			s.observers = append(s.observers, tw)
		}
	}
	if a.Auditor != nil {
		s.attached.Auditor = a.Auditor
		s.observers = append(s.observers, a.Auditor)
		a.Auditor.Bind(audit.View{
			Cfg:        &s.cfg,
			L2s:        s.l2s,
			L3:         s.l3,
			WBInFlight: func(idx int) bool { return s.wbInFlight[idx] },
			Counters: func() audit.Counters {
				return audit.Counters{
					SnarfArbitrated: s.collector.SnarfArbitrated(),
					WBSnarfed:       s.wbSnarfed,
					SnarfFallbacks:  s.snarfFallbacks,
				}
			},
		})
	}
	if a.Latency != nil {
		s.attached.Latency = a.Latency
		s.observers = append(s.observers, a.Latency)
	}
}

// Run executes the workload to completion and returns the results. It
// panics if every event wheel drains while threads still have work,
// which would indicate a lost completion (a simulator bug, not a
// workload property), and with the *cpu.StreamError of a thread stream
// failing mid-run, which RunContext returns instead.
func (s *System) Run() *Results {
	if err := s.runLoop(context.Background()); err != nil {
		panic(err) // a stream error: the background context never cancels
	}
	return s.finish()
}

// cancelCheckEvery is how many event-loop iterations (global events
// and slice-lane cycles) RunContext lets pass between context polls.
// Polling happens outside the event stream — nothing is scheduled,
// Fired does not move, the simulation is bit-identical to Run — so the
// granularity only bounds cancellation latency.
const cancelCheckEvery = 8192

// RunContext is Run with cooperative cancellation: it executes the
// workload to completion unless ctx is cancelled first, in which case
// it abandons the remaining events and returns ctx's error. A thread
// stream failing mid-run ends it with that *cpu.StreamError. A
// completed run is bit-identical to Run() — the context poll observes
// the engines between events and never perturbs them.
func (s *System) RunContext(ctx context.Context) (*Results, error) {
	if err := s.runLoop(ctx); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// finish asserts the drained wheels left no thread mid-access, drains
// the auditor and gathers results.
func (s *System) finish() *Results {
	if !s.threads.Done() {
		panic(fmt.Sprintf("system: engine drained with %d accesses outstanding", s.threads.Outstanding()))
	}
	if a := s.attached.Auditor; a != nil {
		a.Drain(s.lastTime())
	}
	return s.results()
}

// lastTime returns the later of the two wheels' clocks — the time the
// simulation ended.
func (s *System) lastTime() config.Cycles {
	return max(s.engine.Now(), s.sliceWheel.Now())
}

func (s *System) eventsFired() uint64 {
	return s.engine.Fired() + s.sliceWheel.Fired()
}
