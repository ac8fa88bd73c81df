package system

import (
	"context"

	"cmpcache/internal/config"
	"cmpcache/internal/cpu"
	"cmpcache/internal/sim"
)

// This file is the event loop that fixes the simulator's event order
// (DESIGN.md §15).
//
// Events run on two lanes. The slice lane is one wheel holding every
// L2 slice's front-end events: thread issues, probes, re-polls and fill
// deliveries (slice.go). The global lane is a second wheel holding
// every bus-combine event and everything behind it (ring, L3, memory).
// The loop runs one cycle t at a time, t being the earlier of the two
// wheels' next events:
//
//  1. Tick — the first time the loop reaches t, every observer ticks
//     (closing the windows ending at or before t) and the retry
//     switch's sampling window advances to t. Every reader then calls
//     ActiveNow.
//  2. Slice lane — the slice events due at t run, then that cycle's
//     observation log replays into the observers and its bus posts
//     arbitrate at t, both in slice order (see logStamp).
//  3. Global lane — one global event due at t fires. If it woke a
//     thread whose next slice event is due at t, step 2 runs again
//     before the next global event.
//
// A slice event touches only its own slice's state, so firing the
// slices' events interleaved in (time, scheduling order) is exact: each
// slice sees its own events in the same order as on a wheel of its own.
// The only cross-slice effects are the posts and observations, and they
// reach the global side in (slice, append) order. Same-cycle bus posts
// from different slices arbitrate in slice order, not in the order
// their events fired, and every golden Results hash depends on that
// order.

// runLoop executes the workload to completion (or ctx cancellation)
// one cycle at a time, as above. A thread stream failing mid-run ends
// the run with that *cpu.StreamError; any other panic is a simulator
// bug and propagates.
func (s *System) runLoop(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*cpu.StreamError)
			if !ok {
				panic(r)
			}
			err = se
		}
	}()
	s.threads.Start()

	ticked := config.Cycles(-1)
	for iter := 1; ; iter++ {
		sliceNext := s.sliceWheel.NextTime()
		t := min(sliceNext, s.engine.NextTime())
		if t == sim.Forever {
			return nil // both wheels are empty: the run is complete
		}
		if t > ticked {
			ticked = t
			for _, o := range s.observers {
				o.Tick(t)
			}
			s.rswitch.AdvanceTo(t)
		}
		if sliceNext == t {
			s.sliceWheel.RunUntil(t)
			s.drainLogs(t)
		} else {
			for _, o := range s.observers {
				o.AdvanceEvents(t, 1)
			}
			s.engine.Step()
		}
		if iter%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// wakeWaiters completes a bus commit's coalesced waiters from the
// global lane. They re-enter their slice's front end (a completion may
// issue the thread's next access), so the slice wheel's clock first
// advances to now.
func (s *System) wakeWaiters(now config.Cycles, loads, stores []func(config.Cycles)) {
	s.sliceWheel.AdvanceTo(now)
	for _, w := range loads {
		w(now)
	}
	for _, w := range stores {
		w(now)
	}
}

// drainLogs ends the slice lane's cycle t: the observation log replays
// into the observers, their event clocks credit the slice events, and
// the deferred bus posts arbitrate at t, each log front to back.
func (s *System) drainLogs(t config.Cycles) {
	if len(s.observers) > 0 {
		for _, o := range s.observers {
			o.AdvanceEvents(t, 0)
		}
		for i := range s.obs {
			s.replayObs(&s.obs[i], t)
		}
		fired := s.sliceWheel.Fired()
		for _, o := range s.observers {
			o.AdvanceEvents(t, fired-s.creditedFired)
		}
		s.creditedFired, s.obs = fired, s.obs[:0]
	}
	for i := range s.posts {
		s.executePost(&s.posts[i], t)
	}
	s.posts = s.posts[:0]
}
