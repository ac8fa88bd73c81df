package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("Run of empty engine = %d, want 0", got)
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of FIFO order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(3, func() {
		hits = append(hits, e.Now())
		e.Schedule(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 3 || hits[1] != 7 {
		t.Fatalf("hits = %v, want [3 7]", hits)
	}
}

func TestEngineScheduleZeroDelayDuringEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func() {
		e.Schedule(0, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event scheduled from an event did not run")
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestEngineAtBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At before now did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{2, 4, 6, 8} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(5)
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 4 {
		t.Fatalf("fired = %v, want [2 4]", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after full Run fired = %v, want 4 events", fired)
	}
}

func TestEngineMonotonicTime(t *testing.T) {
	// Property: regardless of the (delay) sequence scheduled, observed
	// firing times never decrease.
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEngineHandlerForm(t *testing.T) {
	e := NewEngine()
	var got []EventData
	h := func(d EventData) { got = append(got, d) }
	e.ScheduleCall(4, h, EventData{Key: 2})
	e.AtCall(1, h, EventData{Key: 1, Kind: 7, Flag: true})
	e.Run()
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 2 {
		t.Fatalf("handler events = %+v, want Key order [1 2]", got)
	}
	if d := got[0]; d.Kind != 7 || !d.Flag {
		t.Fatalf("EventData payload not preserved: %+v", d)
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

func TestEngineNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.AtCall(1, nil, EventData{})
}

func TestEngineGrow(t *testing.T) {
	e := NewEngine()
	var sum uint64
	h := func(d EventData) { sum += d.Key }
	e.ScheduleCall(3, h, EventData{Key: 1})
	e.Grow(4096)
	e.ScheduleCall(1, h, EventData{Key: 2})
	for i := 0; i < 100; i++ {
		e.ScheduleCall(Time(i%10), h, EventData{Key: 10})
	}
	e.Run()
	if sum != 1003 {
		t.Fatalf("sum = %d, want 1003 (Grow lost or duplicated events)", sum)
	}
}

// --- Reference queue: the exact pre-rewrite container/heap semantics ---
//
// refEvent/refQueue reimplement the old engine's event queue verbatim —
// container/heap over an (at, seq)-ordered slice — as the ordering
// oracle the specialized 4-ary heap must match event for event.

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refQueue []refEvent

func (h refQueue) Len() int { return len(h) }
func (h refQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refQueue) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x any)       { *h = append(*h, x.(refEvent)) }
func (h *refQueue) Pop() any         { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h *refQueue) popMin() refEvent { return heap.Pop(h).(refEvent) }
func (h *refQueue) add(ev refEvent)  { heap.Push(h, ev) }

// refEngine runs refQueue with the engine's clock contract — Step, Run,
// RunUntil and AdvanceTo — so a test can drive it call for call beside
// the engine.
type refEngine struct {
	q     refQueue
	now   Time
	seq   uint64
	fired uint64
	fire  func(id int)
}

func (r *refEngine) at(t Time, id int) {
	r.q.add(refEvent{at: t, seq: r.seq, id: id})
	r.seq++
}

func (r *refEngine) nextTime() Time {
	if len(r.q) == 0 {
		return Forever
	}
	return r.q[0].at
}

func (r *refEngine) step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q.popMin()
	r.now = ev.at
	r.fired++
	r.fire(ev.id)
	return true
}

func (r *refEngine) run() {
	for r.step() {
	}
}

func (r *refEngine) runUntil(deadline Time) {
	for r.nextTime() <= deadline {
		r.step()
	}
}

// horizon is the delay, in cycles, at and beyond which a calendar-wheel
// queue keeps an event out of its per-cycle slots. The reference test
// aims its delays and collisions at both sides of it.
const horizon = 1024

// firing is one executed event: its id and the cycle it ran at.
type firing struct {
	id int
	at Time
}

// refChildren is an event's deterministic plan, a pure function of its
// id so the engine and the reference agree: short child delays, the
// three delays straddling the horizon, or none. The expected child
// count per event is 5/6, so every schedule drains.
func refChildren(id int) []Time {
	switch id % 6 {
	case 0:
		return []Time{Time(id % 7), Time(id % 11)}
	case 3:
		return []Time{horizon - 1, horizon, horizon + 1}
	}
	return nil
}

// TestEngineMatchesReferenceQueue drives the engine and the reference
// queue with identical randomized schedules — events that schedule
// further events, root delays across three horizons, child delays of
// horizon-1, horizon and horizon+1, and events aimed at the very cycle
// of an event scheduled a horizon or more earlier — while RunUntil,
// AdvanceTo and Step interleave on both. After every call the clocks,
// Pending, NextTime and Fired must agree, and the
// two firing logs must be identical. This is the bit-exact determinism
// contract every experiment golden rests on: events fire in (time,
// scheduling order), so same-cycle events fire in FIFO scheduling order.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refEngine{}
		var eLog, rLog []firing
		var eNext, rNext int
		// farTargets holds the cycles of events scheduled a horizon or
		// more ahead, so the driver can aim later events at them.
		var farTargets []Time

		var h Handler
		h = func(d EventData) {
			id := int(d.Key)
			eLog = append(eLog, firing{id, e.Now()})
			for _, delay := range refChildren(id) {
				if delay >= horizon {
					farTargets = append(farTargets, e.Now()+delay)
				}
				e.ScheduleCall(delay, h, EventData{Key: uint64(eNext)})
				eNext++
			}
		}
		ref.fire = func(id int) {
			rLog = append(rLog, firing{id, ref.now})
			for _, delay := range refChildren(id) {
				ref.at(ref.now+delay, rNext)
				rNext++
			}
		}
		both := func(at Time) {
			if at-e.Now() >= horizon {
				farTargets = append(farTargets, at)
			}
			e.AtCall(at, h, EventData{Key: uint64(eNext)})
			eNext++
			ref.at(at, rNext)
			rNext++
		}
		check := func(step string) {
			t.Helper()
			if e.Now() != ref.now || e.Pending() != len(ref.q) ||
				e.NextTime() != ref.nextTime() || e.Fired() != ref.fired {
				t.Fatalf("seed %d, %s: engine now %d pending %d next %d fired %d; reference %d %d %d %d",
					seed, step, e.Now(), e.Pending(), e.NextTime(), e.Fired(),
					ref.now, len(ref.q), ref.nextTime(), ref.fired)
			}
		}

		for i := 0; i < 200; i++ {
			both(Time(rng.Intn(3 * horizon)))
		}
		check("roots")
		for round := 0; round < 80; round++ {
			var step string
			switch rng.Intn(5) {
			case 0:
				step = "RunUntil"
				deadline := e.Now() + Time(rng.Intn(horizon))
				e.RunUntil(deadline)
				ref.runUntil(deadline)
			case 1:
				step = "AdvanceTo"
				to := e.Now() + Time(rng.Intn(horizon/2))
				if next := e.NextTime(); to > next {
					to = next
				}
				e.AdvanceTo(to)
				ref.now = to
			case 2:
				step = "Step"
				for j := rng.Intn(8); j > 0; j-- {
					if e.Step() != ref.step() {
						t.Fatalf("seed %d: Step availability diverged", seed)
					}
				}
			case 3:
				// Same-cycle collisions: every far target now less than
				// a horizon away gets a second event on its cycle,
				// scheduled long after the first.
				step = "collide"
				kept := farTargets[:0]
				for _, at := range farTargets {
					switch {
					case at < e.Now():
					case at-e.Now() < horizon:
						both(at)
					default:
						kept = append(kept, at)
					}
				}
				farTargets = kept
			case 4:
				step = "roots"
				for j := 0; j < 10; j++ {
					both(e.Now() + Time(rng.Intn(3*horizon)))
				}
			}
			check(step)
		}
		e.Run()
		ref.run()
		check("drain")

		if len(eLog) != len(rLog) {
			t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(eLog), len(rLog))
		}
		for i := range rLog {
			if eLog[i] != rLog[i] {
				t.Fatalf("seed %d: firing order diverges at event %d: engine %+v, reference %+v",
					seed, i, eLog[i], rLog[i])
			}
		}
	}
}

// TestEngineSameCycleFIFOProperty: for any batch sizes, events scheduled
// for one cycle from multiple scheduling rounds fire strictly in
// scheduling order.
func TestEngineSameCycleFIFOProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		e := NewEngine()
		var order []int
		h := func(d EventData) { order = append(order, int(d.Key)) }
		id := 0
		for _, b := range batches {
			for j := 0; j < int(b%8); j++ {
				e.ScheduleCall(3, h, EventData{Key: uint64(id)})
				id++
			}
		}
		e.Run()
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return len(order) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineScheduleStepAllocationFree is the hot-path contract: once
// the queue slice has its capacity, ScheduleCall+Step cycles allocate
// nothing — no interface boxing, no closure, no growth.
func TestEngineScheduleStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := NewEngine()
	e.Grow(64)
	var sink uint64
	h := func(d EventData) { sink += d.Key }
	arg := &sink // a live pointer payload, as real handlers carry
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(1, h, EventData{Ptr: arg, Key: 1})
		e.ScheduleCall(2, h, EventData{Ptr: arg, Key: 2})
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("ScheduleCall+Step allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestEngineDeepQueueAllocationFree exercises the same contract with a
// standing population of 1000 pending events that straddles the
// horizon: some are due within it, some beyond, and each measured cycle
// schedules one of each kind in turn. A first burst of 1100 events
// beyond the horizon, drained before measuring, lets any queue that
// grows on demand reach the capacity this population can need.
func TestEngineDeepQueueAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := NewEngine()
	e.Grow(4096)
	h := func(d EventData) {}
	for i := 0; i < 1100; i++ {
		e.ScheduleCall(Time(horizon+i), h, EventData{})
	}
	e.Run()
	for i := 0; i < 1000; i++ {
		e.ScheduleCall(Time(1+i*7%(3*horizon)), h, EventData{Key: uint64(i)})
	}
	far := false
	avg := testing.AllocsPerRun(500, func() {
		delay := Time(1 + e.Now()%89)
		if far = !far; far {
			delay += horizon
		}
		e.ScheduleCall(delay, h, EventData{})
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("deep-queue ScheduleCall+Step allocates %.1f objects per cycle, want 0", avg)
	}
	if e.Pending() != 1000 {
		t.Fatalf("Pending = %d, want the standing 1000", e.Pending())
	}
}

// TestEngineAdvanceTo pins the clock-only advance used by the sharded
// coordinator: time moves without firing, never backward, and never
// over a pending event.
func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() { fired = true })
	e.AdvanceTo(7)
	if e.Now() != 7 || fired {
		t.Fatalf("AdvanceTo(7): now %d fired %v, want 7 and false", e.Now(), fired)
	}
	e.AdvanceTo(7) // idempotent at the same instant
	e.AdvanceTo(10)
	if fired {
		t.Fatal("AdvanceTo(10) fired the event at 10; it must only move the clock")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("backward AdvanceTo", func() { e.AdvanceTo(9) })
	mustPanic("event-skipping AdvanceTo", func() { e.AdvanceTo(11) })
	e.Run()
	if !fired || e.Now() != 10 {
		t.Fatalf("drain after AdvanceTo: fired %v now %d, want true and 10", fired, e.Now())
	}
}

// BenchmarkEngineScheduleStep is the event engine's layer benchmark. It
// fires events from a standing population shaped like a trace replay's
// event wheel: 26 to 100 events pending (about 30 on average), delays
// mostly 16–64 cycles with a tail to 512, and about one event in six
// firing on the same cycle as the event before it. Each fired event
// schedules zero, one or two successors (one on average at the floor of
// 26), so one b.N iteration is one Step plus about one ScheduleCall;
// ns/event is their cost.
func BenchmarkEngineScheduleStep(b *testing.B) {
	const plan = 1 << 12
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, plan)
	kids := make([]uint8, plan)
	for i := range delays {
		if rng.Intn(100) < 85 {
			delays[i] = Time(16 + rng.Intn(49))
		} else {
			delays[i] = Time(65 + rng.Intn(448))
		}
		switch r := rng.Intn(20); {
		case r < 6:
			kids[i] = 0
		case r < 15:
			kids[i] = 1
		default:
			kids[i] = 2
		}
	}
	e := NewEngine()
	e.Grow(256)
	next := 0
	var h Handler
	schedule := func() {
		e.ScheduleCall(delays[next%plan], h, EventData{Key: uint64(next)})
		next++
	}
	h = func(d EventData) {
		k := int(kids[d.Key%plan])
		switch p := e.Pending(); {
		case p < 26:
			k = 2
		case p >= 100:
			k = 0
		}
		for ; k > 0; k-- {
			schedule()
		}
	}
	for i := 0; i < 64; i++ {
		schedule()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
