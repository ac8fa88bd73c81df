package system

import (
	"context"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
)

// This file is the round loop that fixes the simulator's event order
// (DESIGN.md §15).
//
// Events run on two wheels. The slice wheel, shared by every shard,
// holds each L2 slice's front-end events: thread issues, probes,
// re-polls and fill deliveries. The global wheel holds every
// bus-combine event and everything behind it (ring, L3, memory).
// Execution proceeds in rounds:
//
//  1. Boundary tick — close observability windows up to the next event
//     time and advance the retry switch's sampling window. After this,
//     shard context may only *read* the switch (ActiveNow).
//  2. Shard phase — the slice wheel runs up to a horizon H. H is chosen
//     so no shard event can causally precede any global event: H never
//     exceeds the next global event time, never reaches an
//     observability window boundary, and never exceeds the earliest
//     cycle a freshly posted bus request could combine (the slice
//     wheel's next event time, floored by the address ring's free
//     cycle, plus the address phase).
//  3. Barrier — replay the observation log into the attachments, then
//     execute the deferred bus posts, arbitrating each at its own
//     recorded cycle. Both logs are kept in (time, slice, append) order
//     as records arrive (see logStamp).
//  4. Serial phase — fire global events in time order while they
//     precede every pending slice event and the next window boundary.
//     A global event that wakes waiters first advances the slice
//     wheel's clock to its cycle, so re-entered shard code observes the
//     right Now.
//
// A shard event touches only its own slice's state, so firing the
// slices' events interleaved in (time, scheduling order) is exact: each
// slice sees its own events in the same order as on a wheel of its own.
// The only cross-slice effects are the posts and observations, and they
// reach the global side in (time, slice, append) order. Same-cycle bus
// posts from different slices arbitrate in slice order, not in the
// order their events fired, and every golden Results hash depends on
// that order.

// runRounds executes the workload to completion (or ctx cancellation)
// using the round structure above.
func (s *System) runRounds(ctx context.Context) error {
	for _, sh := range s.shards {
		sh.threads.Start()
	}

	windowed := s.lat != nil && s.lat.Windowed()
	serialBudget := 0
	for {
		minLocal := s.sliceWheel.NextTime()
		tg := s.engine.NextTime()
		tNext := min(minLocal, tg)
		if tNext == sim.Forever {
			break // both wheels are empty: the run is complete
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
			boundary = min(boundary, s.lat.NextBoundary())
		}

		// (2) Horizon: the largest cycle shards may run to freely.
		if minLocal != sim.Forever {
			look := max(minLocal, s.ring.AddressNextFree()) + s.cfg.AddressPhase
			if h := min(tg, look, boundary-1); minLocal <= h {
				s.sliceWheel.RunUntil(h)
				s.drainBarrier(h)
			}
		}

		// (4) Serial phase: global events that precede every pending
		// slice event and the next window boundary.
		for {
			g := s.engine.NextTime()
			if g >= boundary || g >= s.sliceWheel.NextTime() {
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

// wakeWaiters completes a bus commit's coalesced waiters from
// serial-phase context. They re-enter their shard's front end (a
// completion may issue the thread's next access), so the slice wheel's
// clock first advances to now.
func (s *System) wakeWaiters(now config.Cycles, loads, stores []func(config.Cycles)) {
	s.sliceWheel.AdvanceTo(now)
	for _, w := range loads {
		w(now)
	}
	for _, w := range stores {
		w(now)
	}
}

// drainBarrier is the rendezvous after a shard phase: the observation
// log replays, the auditor's event clock catches up to the horizon, and
// the deferred bus posts arbitrate at their recorded cycles, each log
// front to back.
func (s *System) drainBarrier(h config.Cycles) {
	if len(s.obs) == 0 && len(s.posts) == 0 && s.auditor == nil {
		return
	}
	for i := range s.obs {
		s.replayObs(&s.obs[i])
	}
	if s.auditor != nil {
		fired := s.sliceWheel.Fired()
		s.auditor.AdvanceEvents(h, fired-s.auditedFired)
		s.auditedFired = fired
	}
	for i := range s.posts {
		s.executePost(&s.posts[i])
	}
	s.obs, s.posts = s.obs[:0], s.posts[:0]
}
