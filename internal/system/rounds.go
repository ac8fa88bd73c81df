package system

import (
	"context"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
)

// This file is the round loop that fixes the simulator's event order
// (DESIGN.md §15).
//
// The simulated chip is partitioned by L2 slice into shards, each with
// its own event wheel, plus one global wheel holding every bus-combine
// event and everything behind it (ring, L3, memory). Execution proceeds
// in rounds:
//
//  1. Boundary tick — close observability windows up to the next event
//     time and advance the retry switch's sampling window. After this,
//     shard context may only *read* the switch (ActiveNow).
//  2. Shard phase — every shard runs its wheel up to a horizon H, one
//     shard after another. H is chosen so no shard event can causally
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
// shard index. Same-cycle bus posts from different slices arbitrate in
// slice order, not in the order their events fired, and every golden
// Results hash depends on that order.

// runRounds executes the workload to completion (or ctx cancellation)
// using the round structure above.
func (s *System) runRounds(ctx context.Context) error {
	for _, sh := range s.shards {
		sh.threads.Start()
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
		if minLocal != sim.Forever {
			look := minLocal
			if nf := s.ring.AddressNextFree(); nf > look {
				look = nf
			}
			look += s.cfg.AddressPhase
			if look < h {
				h = look
			}
			if boundary-1 < h {
				h = boundary - 1
			}
			if minLocal <= h {
				for _, sh := range s.shards {
					if sh.engine.NextTime() <= h {
						sh.engine.RunUntil(h)
					}
				}
				s.drainBarrier(h)
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

// drainBarrier is the rendezvous after a shard phase: observation
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
