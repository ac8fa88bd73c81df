package system

import (
	"context"
	"runtime"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
)

// This file is the intra-run parallel coordinator (DESIGN.md §15).
//
// The simulated chip is partitioned by L2 slice into shards, each with
// its own event wheel, plus one global wheel holding every bus-combine
// event and everything behind it (ring, L3, memory). Execution proceeds
// in rounds:
//
//  1. Boundary tick — close observability windows up to the next event
//     time and advance the retry switch's sampling window. After this,
//     shard context may only *read* the switch (ActiveNow).
//  2. Parallel phase — every shard runs its wheel up to a horizon H on
//     worker goroutines. H is chosen so no shard event can causally
//     precede any global event: H never exceeds the next global event
//     time, never reaches an observability window boundary, and never
//     exceeds the earliest cycle a freshly posted bus request could
//     combine (min over shards of next-event time, floored by the
//     address ring's free cycle, plus the address phase).
//  3. Barrier — replay the shards' observation logs into the
//     attachments in canonical (time, shard) order, then execute the
//     deferred bus posts in canonical (time, shard) order, arbitrating
//     each at its own recorded cycle.
//  4. Serial phase — fire global events in time order while they
//     precede every pending shard event and the next window boundary.
//     A global event that wakes waiters first advances the woken
//     shard's parked clock to its cycle, so re-entered shard code
//     observes the right Now.
//
// Every merge order above is a pure function of simulated time and
// shard index, and the phases never overlap, so the complete execution
// — Results, probe series, audit verdicts, latency reports — is
// bit-identical at any worker count. Workers == 1 runs the identical
// round structure inline; that *is* the serial engine.

// ShardingStats records the round-coordinator's execution shape for a
// run, answering not just whether a sharded run is slow but *why* —
// which constraint limited each parallel horizon, and how long shard
// results sat at the barrier.
//
// The counters (Rounds, ParallelRounds, Horizon*) are pure functions of
// simulated time: workers only change which goroutine executes a shard,
// never the round structure, so they are identical at every worker
// count. They are NOT invariant under observation attachments — the
// metrics probe and windowed latency collector schedule their own
// wake-ups, adding rounds — so the whole record stays out of Results
// JSON (Results.Sharding is json:"-", preserving the observation-only
// result-byte contract) and is read in process. The wall-clock fields (Workers,
// BarrierWaitNs, BarrierDrainNs) additionally vary by host and worker
// count.
type ShardingStats struct {
	// Rounds counts coordinator iterations (boundary tick → horizon
	// choice → optional parallel phase → serial phase).
	Rounds uint64
	// ParallelRounds counts rounds whose horizon admitted at least one
	// shard event, i.e. rounds that ran a parallel phase and a barrier.
	ParallelRounds uint64
	// Horizon-limiter attribution: which constraint bounded the horizon
	// on each parallel round. NextGlobal: the next global (bus/ring/L3/
	// memory) event time tg. RingCredit: the earliest cycle a freshly
	// posted bus request could combine (shard lookahead floored by the
	// address ring's free cycle, plus the address phase). Window: an
	// observability window boundary (metrics probe or windowed latency
	// collector). Sums to ParallelRounds.
	HorizonNextGlobal uint64
	HorizonRingCredit uint64
	HorizonWindow     uint64

	// Wall-clock barrier attribution, collected only when a worker pool
	// ran (Workers > 1); nil/zero on serial runs so the serial hot path
	// pays nothing. BarrierWaitNs[i] accumulates, per shard, the time
	// between shard i finishing its parallel phase and the round's last
	// shard finishing — the idle tail the barrier imposes. Excluded from
	// JSON: results must stay bit-identical across worker counts.
	Workers        int     `json:"-"`
	BarrierWaitNs  []int64 `json:"-"`
	BarrierDrainNs int64   `json:"-"`
}

// BarrierWaitTotalNs sums the per-shard barrier idle time.
func (p *ShardingStats) BarrierWaitTotalNs() int64 {
	var total int64
	for _, ns := range p.BarrierWaitNs {
		total += ns
	}
	return total
}

// horizon-limiter tags for the attribution counters above.
type horizonLimit uint8

const (
	limNextGlobal horizonLimit = iota
	limRingCredit
	limWindow
)

// MaxWorkers returns the largest useful intra-run worker count for cfg:
// one worker per L2 slice, capped by GOMAXPROCS. This is the "auto"
// resolution for the -shards flags.
func MaxWorkers(cfg *config.Config) int {
	n := cfg.NumL2()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers sets how many goroutines execute the parallel phase.
// n <= 0 selects auto (MaxWorkers); anything larger than MaxWorkers is
// clamped — extra workers would only contend. The choice affects wall
// clock only: results are bit-identical at every worker count. Call
// before Run.
func (s *System) SetWorkers(n int) {
	max := MaxWorkers(&s.cfg)
	if n <= 0 || n > max {
		n = max
	}
	s.workers = n
}

// Workers returns the effective parallel-phase worker count.
func (s *System) Workers() int { return s.workers }

// runRounds executes the workload to completion (or ctx cancellation)
// using the round structure above.
func (s *System) runRounds(ctx context.Context) error {
	for _, sh := range s.shards {
		sh.threads.Start()
	}
	workers := s.workers
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	var pool *workerPool
	if workers > 1 {
		pool = s.startPool(workers)
		defer pool.stop()
	}

	windowed := s.lat != nil && s.lat.Windowed()
	serialBudget := 0
	s.shardNext = s.minShardTime()
	for {
		minLocal := s.shardNext
		tg := s.engine.NextTime()
		tNext := minLocal
		if tg < tNext {
			tNext = tg
		}
		if tNext == sim.Forever {
			break // every wheel is empty: the run is complete
		}
		s.pstats.Rounds++

		// (1) Boundary tick: windows ending at or before the next event
		// close now, seeing exactly the state after all earlier events.
		if s.probe != nil {
			s.probe.Tick(tNext)
		}
		if windowed {
			s.lat.Tick(tNext)
		}
		s.rswitch.AdvanceTo(tNext)
		boundary := sim.Forever
		if s.probe != nil {
			boundary = s.probe.NextBoundary()
		}
		if windowed {
			if b := s.lat.NextBoundary(); b < boundary {
				boundary = b
			}
		}

		// (2) Horizon: the largest cycle shards may run to freely.
		h := tg
		limiter := limNextGlobal
		if minLocal != sim.Forever {
			look := minLocal
			if nf := s.ring.AddressNextFree(); nf > look {
				look = nf
			}
			look += s.cfg.AddressPhase
			if look < h {
				h = look
				limiter = limRingCredit
			}
			if boundary-1 < h {
				h = boundary - 1
				limiter = limWindow
			}
			if minLocal <= h {
				s.pstats.ParallelRounds++
				switch limiter {
				case limRingCredit:
					s.pstats.HorizonRingCredit++
				case limWindow:
					s.pstats.HorizonWindow++
				default:
					s.pstats.HorizonNextGlobal++
				}
				if pool != nil {
					pool.runRound(h)
					t0 := time.Now()
					s.drainBarrier(h)
					s.pstats.BarrierDrainNs += time.Since(t0).Nanoseconds()
				} else {
					for _, sh := range s.shards {
						if sh.engine.NextTime() <= h {
							sh.engine.RunUntil(h)
						}
					}
					s.drainBarrier(h)
				}
				s.shardNext = s.minShardTime()
			}
		}

		// (4) Serial phase: global events that precede every pending
		// shard event and the next window boundary. Shard wheels do not
		// fire here, so the earliest shard event can only move earlier,
		// and only through atShard/wakeWaiters — which keep shardNext
		// exact without a rescan per event.
		for {
			g := s.engine.NextTime()
			if g >= boundary || g >= s.shardNext {
				break
			}
			if s.auditor != nil {
				s.auditor.AdvanceEvents(g, 1)
			}
			s.engine.Step()
			if serialBudget++; serialBudget >= cancelCheckEvery {
				serialBudget = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}

		if serialBudget++; serialBudget >= cancelCheckEvery {
			serialBudget = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// minShardTime returns the earliest pending shard event time.
func (s *System) minShardTime() config.Cycles {
	m := sim.Forever
	for _, sh := range s.shards {
		if t := sh.engine.NextTime(); t < m {
			m = t
		}
	}
	return m
}

// atShard schedules h on shard idx's wheel from serial-phase context,
// keeping shardNext exact.
func (s *System) atShard(idx int, t config.Cycles, h sim.Handler, d sim.EventData) {
	s.shards[idx].engine.AtCall(t, h, d)
	if t < s.shardNext {
		s.shardNext = t
	}
}

// wakeWaiters completes a bus commit's coalesced waiters on shard idx
// from serial-phase context. They re-enter the shard's front end (a
// completion may issue the thread's next access), so the parked shard
// clock first advances to now, and whatever they schedule on the shard
// wheel is folded into shardNext.
func (s *System) wakeWaiters(idx int, now config.Cycles, loads, stores []func(config.Cycles)) {
	wheel := s.shards[idx].engine
	wheel.AdvanceTo(now)
	for _, w := range loads {
		w(now)
	}
	for _, w := range stores {
		w(now)
	}
	if t := wheel.NextTime(); t < s.shardNext {
		s.shardNext = t
	}
}

// drainBarrier is the rendezvous after a parallel phase: observation
// logs replay in (time, shard) order, the auditor's event clock catches
// up to the horizon, and the deferred bus posts arbitrate in (time,
// shard) order at their recorded cycles.
func (s *System) drainBarrier(h config.Cycles) {
	var fired uint64
	for {
		var best *shard
		bestAt := sim.Forever
		for _, sh := range s.shards {
			if sh.obsNext < len(sh.obs) && sh.obs[sh.obsNext].at < bestAt {
				best, bestAt = sh, sh.obs[sh.obsNext].at
			}
		}
		if best == nil {
			break
		}
		s.replayObs(best, &best.obs[best.obsNext])
		best.obsNext++
	}
	if s.auditor != nil {
		for _, sh := range s.shards {
			fired += sh.engine.Fired()
		}
		s.auditor.AdvanceEvents(h, fired-s.auditedFired)
		s.auditedFired = fired
	}
	for {
		var best *shard
		bestAt := sim.Forever
		for _, sh := range s.shards {
			if sh.postNext < len(sh.posts) && sh.posts[sh.postNext].when < bestAt {
				best, bestAt = sh, sh.posts[sh.postNext].when
			}
		}
		if best == nil {
			break
		}
		s.executePost(best, &best.posts[best.postNext])
		best.postNext++
	}
	for _, sh := range s.shards {
		sh.obs, sh.obsNext = sh.obs[:0], 0
		sh.posts, sh.postNext = sh.posts[:0], 0
	}
}

// workerPool runs the parallel phase on persistent goroutines. Shards
// are statically striped across workers (worker w owns shards w, w+W,
// …) so ownership never changes; the coordinator doubles as worker 0.
// Per round, only workers whose shards have events at or before the
// horizon are woken — idle-shard rounds cost nothing.
type workerPool struct {
	s       *System
	workers int
	horizon config.Cycles // published before wake sends; read after receives
	wake    []chan struct{}
	done    chan struct{}
}

func (s *System) startPool(n int) *workerPool {
	p := &workerPool{s: s, workers: n, done: make(chan struct{}, n)}
	s.pstats.BarrierWaitNs = make([]int64, len(s.shards))
	for w := 1; w < n; w++ {
		ch := make(chan struct{}, 1)
		p.wake = append(p.wake, ch)
		go p.serve(w, ch)
	}
	return p
}

func (p *workerPool) serve(w int, wake <-chan struct{}) {
	for range wake {
		p.runShards(w)
		p.done <- struct{}{}
	}
}

// runShards executes worker w's shards up to the published horizon,
// stamping each shard's finish instant for barrier-wait attribution.
func (p *workerPool) runShards(w int) {
	h := p.horizon
	for i := w; i < len(p.s.shards); i += p.workers {
		sh := p.s.shards[i]
		if sh.engine.NextTime() <= h {
			sh.engine.RunUntil(h)
			sh.doneAtNs = time.Now().UnixNano()
		}
	}
}

// hasWork reports whether worker w owns a shard with an event due by h.
func (p *workerPool) hasWork(w int, h config.Cycles) bool {
	for i := w; i < len(p.s.shards); i += p.workers {
		if p.s.shards[i].engine.NextTime() <= h {
			return true
		}
	}
	return false
}

// runRound executes one parallel phase across the pool and returns
// after every woken worker has quiesced (the epoch barrier).
func (p *workerPool) runRound(h config.Cycles) {
	p.horizon = h
	woken := 0
	for w := 1; w < p.workers; w++ {
		if p.hasWork(w, h) {
			p.wake[w-1] <- struct{}{}
			woken++
		}
	}
	p.runShards(0)
	for ; woken > 0; woken-- {
		<-p.done
	}
	// All workers have quiesced (the done receives order their shard
	// stamps before these reads). Charge each shard that ran the gap
	// between its finish and now — the idle time the barrier imposed.
	now := time.Now().UnixNano()
	waits := p.s.pstats.BarrierWaitNs
	for i, sh := range p.s.shards {
		if sh.doneAtNs != 0 {
			waits[i] += now - sh.doneAtNs
			sh.doneAtNs = 0
		}
	}
}

// stop retires the pool's goroutines (between rounds, so none is
// running a shard).
func (p *workerPool) stop() {
	for _, ch := range p.wake {
		close(ch)
	}
}
