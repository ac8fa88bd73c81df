// Package sim provides a minimal discrete-event simulation engine and a
// small set of queued-resource models (single servers, multi-servers and
// finite token queues) used by every timed component in the simulator.
//
// Time is measured in integer core cycles. Events scheduled for the same
// cycle fire in FIFO order of scheduling, which keeps simulations
// deterministic for a fixed input.
//
// The pending set is a calendar wheel: an event due less than 1024
// cycles after Now goes into that cycle's FIFO slot, so scheduling and
// firing it are O(1). Events due further ahead wait in a 4-ary min-heap,
// the far heap, which Trade2 and TP replays never reach. The engine's
// hot path is allocation-free in steady state: slot entries are nodes of
// a recycled slab, and the (Handler, EventData) event form lets
// components schedule work through handlers bound once at construction
// instead of allocating a closure per event. The classic closure form
// (Schedule/At with a func()) remains available for cold paths and
// tests.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in core clock cycles.
type Time int64

// Forever is a time later than any reachable simulation time.
const Forever Time = math.MaxInt64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Handler is an event callback that receives the EventData it was
// scheduled with. Components bind their handlers once (typically as
// struct fields at construction) and pass per-event state through
// EventData, so scheduling allocates nothing.
type Handler func(d EventData)

// EventData is the payload carried by a scheduled event. The fields are
// generic slots — a component pointer, a cache-line key, an auxiliary
// integer, a discriminator and a flag — that cover every scheduling site
// in the simulator without per-event heap state. Ptr holds pointer-shaped
// values (pointers, funcs, maps); storing those in an interface does not
// allocate.
type EventData struct {
	Ptr  any
	Key  uint64
	Aux  int64
	Kind int8
	Flag bool
}

// wheelSlots is the calendar wheel's span in cycles: an event due less
// than wheelSlots cycles after Now goes into a per-cycle slot, a later
// one into the far heap. 960K-reference Trade2 and TP replays schedule
// 78-89% of their events at most 64 cycles ahead and none 1024 or more
// ahead (DESIGN.md §10), so every one of their events takes the O(1)
// path. A power of two, so a time's slot is its low bits.
const (
	wheelSlots = 1 << 10
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64 // occupancy bitmap words
)

// scheduledEvent is one far-heap entry. Events are stored by value in
// the heap; nothing is boxed.
type scheduledEvent struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-cycle far events
	h   Handler
	d   EventData
}

// before orders events by (time, scheduling sequence) — the total order
// every queue implementation must reproduce exactly.
func (a *scheduledEvent) before(b *scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// node is one wheel-slot entry in the engine's node slab. A slot is a
// circular singly linked list threaded through next, reached from its
// tail, so appending and taking the head are both O(1). Nodes do not
// record their time: wheel events span fewer than wheelSlots
// consecutive cycles, so a slot holds events of one cycle only.
type node struct {
	h    Handler
	d    EventData
	next int32 // next node in the slot's circle, or in the free list
}

// runClosure adapts the closure event form onto the handler form.
func runClosure(d EventData) { d.Ptr.(Event)() }

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Pending events live in two places. An event due less than wheelSlots
// cycles after Now at the moment it is scheduled goes into the calendar
// wheel: slot t&wheelMask holds the events of cycle t in scheduling
// order, and since Now never passes a pending event, every wheel event
// is due in [Now, Now+wheelSlots), one cycle per slot. An event due
// further ahead goes into the far heap, ordered by (time, seq). Firing
// takes the earlier of the wheel's first event and the far heap's
// minimum, and the far event on a tie: it was scheduled while its cycle
// was still at least wheelSlots away, so before any wheel event of that
// cycle, which keeps the firing order (time, scheduling order) exactly.
type Engine struct {
	now     Time
	stopped bool
	fired   uint64

	// The wheel. slots[s] is the tail node index of slot s's circle (0:
	// empty; nodes[0] is a sentinel, so the zero Engine is ready to
	// use), occ marks the non-empty slots, and nearNext caches the
	// earliest wheel event time while nearLen > 0, so NextTime is O(1)
	// and the bitmap is scanned only when a slot drains.
	slots    [wheelSlots]int32
	occ      [wheelWords]uint64
	nearNext Time
	nearLen  int
	nodes    []node // slab; node 0 is the unused sentinel
	free     int32  // head of the recycled-node list (0: none)

	// The far heap: a 4-ary min-heap ordered by before(). seq numbers
	// far events in scheduling order.
	far []scheduledEvent
	seq uint64

	// tick, when non-nil, observes every event's timestamp just before
	// its handler runs (the metrics probe's window clock). Observation
	// only: it must not schedule events or mutate simulation state.
	tick func(Time)
}

// NewEngine returns an empty engine positioned at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetTick installs fn as the per-event time observer (nil uninstalls
// it). fn sees each event's timestamp after Now has advanced to it and
// before the event's handler executes, so a sampler driven by it reads
// the state the simulation had strictly before the observed cycle.
func (e *Engine) SetTick(fn func(Time)) { e.tick = fn }

// Grow pre-sizes the node slab so that n events due within the wheel's
// span can be pending without reallocating, avoiding growth copies
// mid-run. The far heap grows on demand and keeps its capacity.
func (e *Engine) Grow(n int) {
	if n+1 <= cap(e.nodes) {
		return
	}
	grown := make([]node, len(e.nodes), n+1)
	copy(grown, e.nodes)
	e.nodes = grown
}

// Schedule runs fn after delay cycles. A negative delay panics: the past
// is immutable.
func (e *Engine) Schedule(delay Time, fn Event) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %d cycles in the past", -delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute cycle t, which must not precede Now.
func (e *Engine) At(t Time, fn Event) {
	if fn == nil {
		panic("sim: nil event")
	}
	e.AtCall(t, runClosure, EventData{Ptr: fn})
}

// ScheduleCall runs h with d after delay cycles. A negative delay
// panics: the past is immutable.
func (e *Engine) ScheduleCall(delay Time, h Handler, d EventData) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %d cycles in the past", -delay))
	}
	e.AtCall(e.now+delay, h, d)
}

// AtCall runs h with d at the absolute cycle t, which must not precede
// Now. This is the allocation-free scheduling primitive.
func (e *Engine) AtCall(t Time, h Handler, d EventData) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) before now (%d)", t, e.now))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	if t-e.now >= wheelSlots {
		e.push(scheduledEvent{at: t, seq: e.seq, h: h, d: d})
		e.seq++
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{}) // the sentinel
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	n := &e.nodes[i]
	n.h, n.d = h, d
	s := int(t) & wheelMask
	if tail := e.slots[s]; tail == 0 {
		n.next = i
		e.occ[s>>6] |= 1 << (s & 63)
	} else {
		n.next = e.nodes[tail].next
		e.nodes[tail].next = i
	}
	e.slots[s] = i
	if e.nearLen == 0 || t < e.nearNext {
		e.nearNext = t
	}
	e.nearLen++
}

// Pending reports the number of events waiting to fire. The event whose
// handler is currently executing has already been popped, so a handler
// that schedules nothing observes Pending() == 0 when it is the last
// event in the queue — Pending counts the future, never the present.
func (e *Engine) Pending() int { return e.nearLen + len(e.far) }

// NextTime returns the timestamp of the earliest pending event, or
// Forever when the queue is empty. It never fires or reorders anything;
// coordinators use it to bound how far a wheel may safely run.
func (e *Engine) NextTime() Time {
	t := Forever
	if e.nearLen > 0 {
		t = e.nearNext
	}
	if len(e.far) > 0 && e.far[0].at <= t {
		t = e.far[0].at
	}
	return t
}

// AdvanceTo moves the clock forward to t without firing events. t must
// not precede Now and must not skip over a pending event — the past
// stays immutable and no event may be jumped. The sharded coordinator
// uses it to keep parked shard wheels in step with the global wheel, so
// handlers invoked synchronously from global events (waiter wake-ups)
// read the correct Now.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) before now (%d)", t, e.now))
	}
	if next := e.NextTime(); next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) would skip event at %d", t, next))
	}
	e.now = t
}

// Stop makes the current Run, RunUntil or Step-driven loop observe the
// stop after the currently executing event's handler returns. Calling
// it from inside an event handler is the intended use (a watchdog or
// deadline event halting its own run); calling it between runs is a
// no-op because Run and RunUntil both clear the flag on entry. Stop
// never discards events: everything still pending (including events the
// stopping handler itself scheduled) remains queued and a subsequent
// Run/RunUntil resumes exactly where the stopped one left off.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and reports whether one
// was available.
func (e *Engine) Step() bool {
	var h Handler
	var d EventData
	switch {
	case e.nearLen > 0 && (len(e.far) == 0 || e.nearNext < e.far[0].at):
		h, d = e.popNear()
	case len(e.far) > 0:
		ev := e.pop()
		e.now = ev.at
		h, d = ev.h, ev.d
	default:
		return false
	}
	e.fired++
	if e.tick != nil {
		e.tick(e.now)
	}
	h(d)
	return true
}

// popNear removes the wheel's first event, advances Now to its cycle
// and returns its handler and payload.
func (e *Engine) popNear() (Handler, EventData) {
	at := e.nearNext
	s := int(at) & wheelMask
	tail := e.slots[s]
	i := e.nodes[tail].next
	n := &e.nodes[i]
	h, d := n.h, n.d
	if i == tail {
		e.slots[s] = 0
		e.occ[s>>6] &^= 1 << (s & 63)
	} else {
		e.nodes[tail].next = n.next
	}
	*n = node{next: e.free} // drop the references for GC
	e.free = i
	e.now = at
	if e.nearLen--; e.nearLen > 0 && e.slots[s] == 0 {
		e.nearNext = e.scan(at)
	}
	return h, d
}

// scan returns the earliest wheel event time at or after from, a cycle
// whose slot is empty. Wheel events lie in [from, from+wheelSlots), so
// the first occupied slot circularly after from's is the earliest, and
// its circular distance from from's slot is its distance in cycles.
// The wheel must not be empty.
func (e *Engine) scan(from Time) Time {
	s := int(from) & wheelMask
	w := s >> 6
	if word := e.occ[w] &^ (1<<(s&63) - 1); word != 0 {
		return from + Time((w<<6|bits.TrailingZeros64(word))-s)
	}
	for k := 1; k <= wheelWords; k++ {
		ww := (w + k) & (wheelWords - 1)
		if word := e.occ[ww]; word != 0 {
			return from + Time(((ww<<6|bits.TrailingZeros64(word))-s)&wheelMask)
		}
	}
	panic("sim: wheel occupancy lost") // unreachable: nearLen > 0
}

// Run executes events until none remain or Stop is called. It returns the
// final simulation time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps not exceeding deadline. Events
// scheduled beyond the deadline remain pending. It returns the final
// simulation time, which never exceeds deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && e.NextTime() <= deadline {
		e.Step()
	}
	if e.now > deadline {
		panic("sim: time ran past deadline") // unreachable: guarded above
	}
	return e.now
}

// --- The far heap: a 4-ary min-heap specialized to scheduledEvent ---
//
// A 4-ary heap halves tree depth versus the binary container/heap,
// trading a wider (cache-line-friendly) child scan per level for fewer
// levels, and its monomorphic sift routines avoid the Less/Swap/Pop
// interface dispatch and the per-Pop any boxing of container/heap.

// push appends ev and restores the heap invariant by sifting up.
func (e *Engine) push(ev scheduledEvent) {
	h := append(e.far, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.far = h
}

// pop removes and returns the minimum event.
func (e *Engine) pop() scheduledEvent {
	h := e.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = scheduledEvent{} // release the Ptr reference for GC
	h = h[:n]
	e.far = h
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
