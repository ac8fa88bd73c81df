package system

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// helperGoroutines counts the live goroutines running a reuse helper.
func helperGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), ".(*reuseTracker).serve(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitNoHelper fails t unless every reuse helper has exited. A stopped
// helper has closed its done channel but may still be on its way out,
// so the check polls briefly.
func waitNoHelper(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for helperGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d reuse helper goroutines outlived their run", helperGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// reuseUpdate is one logged update, for tests that replay a stream.
type reuseUpdate struct {
	op  reuseOp
	key uint64
}

// randomReuseStream draws n updates over a few hundred lines, so
// attempts, accepts, misses, inserts and clean write backs of the same
// line interleave.
func randomReuseStream(rng *rand.Rand, n int) []reuseUpdate {
	u := make([]reuseUpdate, n)
	for i := range u {
		u[i] = reuseUpdate{op: reuseOp(rng.IntN(int(opCleanWB) + 1)), key: rng.Uint64N(300) * 128}
	}
	return u
}

// applyDirect applies updates by calling the table's methods one by
// one, with no log in between.
func applyDirect(t *reuseTable, updates []reuseUpdate) {
	for _, u := range updates {
		switch u.op {
		case opAttempt:
			t.attempt(u.key)
		case opAccepted:
			t.accept(u.key)
		case opDemandMiss:
			t.demandMiss(u.key)
		case opL3Insert:
			t.l3Insert(u.key)
		case opCleanWB:
			t.cleanWB(u.key)
		}
	}
}

// trackerIn returns a tracker whose batches apply inline or, for
// mode "helper", on a helper it has already started.
func trackerIn(mode string) *reuseTracker {
	r := newReuseTracker()
	if mode == "helper" {
		r.start()
	} else {
		r.mode = reuseInline
	}
	return r
}

// TestReuseLogMatchesDirectCalls: a random update sequence spanning
// several batches gives the same Table 2 statistics and clean-write-back
// split whether the log applies it inline, on the helper, or the table
// takes it by direct calls. A drain part-way through hands a partial
// batch over, as a test reading the table between updates does.
func TestReuseLogMatchesDirectCalls(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		updates := randomReuseStream(rng, 3*reuseBatchLen+rng.IntN(reuseBatchLen))
		mid := rng.IntN(len(updates))

		want := newReuseTable()
		applyDirect(&want, updates)
		wantStats := want.stats()

		for _, mode := range []string{"inline", "helper"} {
			r := trackerIn(mode)
			for i, u := range updates {
				if i == mid {
					r.drain()
				}
				r.push(u.op, u.key)
			}
			got := r.snapshot()
			r.stop()
			if !reflect.DeepEqual(got, wantStats) {
				t.Errorf("seed %d, %s: stats %+v, direct calls %+v", seed, mode, got, wantStats)
			}
			if r.table.cleanWBFirst != want.cleanWBFirst || r.table.cleanWBLost != want.cleanWBLost {
				t.Errorf("seed %d, %s: clean write backs first/lost %d/%d, direct calls %d/%d", seed, mode,
					r.table.cleanWBFirst, r.table.cleanWBLost, want.cleanWBFirst, want.cleanWBLost)
			}
		}
	}
}

// tpTrace generates TP's trace at refs references per thread.
func tpTrace(t testing.TB, refs int) *trace.Trace {
	t.Helper()
	prof, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	prof.RefsPerThread = refs
	tr, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// failingThreadSource fails thread's stream after its first chunk:
// with errStreamBroke, or by panicking with panicWith when it is set.
type failingThreadSource struct {
	trace.Source
	thread    int
	panicWith any
}

var errStreamBroke = errors.New("stream broke")

func (s failingThreadSource) Stream(tid int) trace.Stream {
	st := s.Source.Stream(tid)
	if tid != s.thread {
		return st
	}
	return &failAfterFirstChunk{Stream: st, panicWith: s.panicWith}
}

type failAfterFirstChunk struct {
	trace.Stream
	panicWith any
	served    bool
}

func (f *failAfterFirstChunk) NextChunk() ([]trace.Record, error) {
	if f.served {
		if f.panicWith != nil {
			panic(f.panicWith)
		}
		return nil, errStreamBroke
	}
	f.served = true
	return f.Stream.NextChunk()
}

// cancelAfterPolls reads as cancelled from its polls-th Err call on, so
// a run stops at the same point mid-way on every host.
type cancelAfterPolls struct {
	context.Context
	polls int
}

func (c *cancelAfterPolls) Err() error {
	if c.polls--; c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestRunStopsHelper: a run whose helper is running leaves no helper
// goroutine behind when it completes, when its context is cancelled
// mid-run, when a thread's stream fails mid-run, and when the run
// panics.
func TestRunStopsHelper(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Combined)
	tr := tpTrace(t, 2000)
	newSys := func(src trace.Source) *System {
		s, err := NewStream(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		s.reuse.start()
		return s
	}
	mem, err := trace.NewMemSource(tr)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("done", func(t *testing.T) {
		s := newSys(mem)
		s.Run()
		if s.reuse.mode == reuseHelper {
			t.Error("the tracker still counts on its helper after Run")
		}
		waitNoHelper(t)
	})

	t.Run("cancelled", func(t *testing.T) {
		s := newSys(mem)
		if _, err := s.RunContext(&cancelAfterPolls{Context: context.Background(), polls: 8}); err != context.Canceled {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
		if s.reuse.table.attempted == 0 {
			t.Error("the run was cancelled before the helper applied a batch")
		}
		waitNoHelper(t)
	})

	t.Run("stream-error", func(t *testing.T) {
		s := newSys(failingThreadSource{Source: mem, thread: 13})
		if _, err := s.RunContext(context.Background()); !errors.Is(err, errStreamBroke) {
			t.Fatalf("RunContext = %v, want the stream error", err)
		}
		waitNoHelper(t)
	})

	t.Run("panic", func(t *testing.T) {
		s := newSys(failingThreadSource{Source: mem, thread: 13, panicWith: "simulator bug"})
		p := func() (p any) {
			defer func() { p = recover() }()
			s.RunContext(context.Background())
			return nil
		}()
		if p != "simulator bug" {
			t.Fatalf("RunContext panicked with %v, want the run's panic", p)
		}
		waitNoHelper(t)
	})
}

// TestReuseHelperPanicSurfaces: a panic while the helper applies a
// batch is re-raised on the goroutine that logs updates, which never
// hangs, and the helper is gone afterwards. Run raises it too, so a
// sweep or the daemon isolates it as it would any simulator panic.
func TestReuseHelperPanicSurfaces(t *testing.T) {
	const badOp = reuseOp(200)
	recovered := func(fn func()) (p any) {
		defer func() { p = recover() }()
		fn()
		return nil
	}
	wantPanic := func(t *testing.T, p any) {
		t.Helper()
		if msg, _ := p.(string); !strings.Contains(msg, "unknown op 200") {
			t.Fatalf("recovered %v, want the helper's unknown-op panic", p)
		}
	}

	t.Run("tracker", func(t *testing.T) {
		r := newReuseTracker()
		r.start()
		p := recovered(func() {
			r.push(badOp, 1)
			for i := 0; i < 4*reuseBatchLen; i++ {
				r.recordAttempt(uint64(i))
			}
			r.drain()
		})
		wantPanic(t, p)
		r.stop() // already stopped by the panic: a no-op
		waitNoHelper(t)
	})

	t.Run("run", func(t *testing.T) {
		s, err := newSystem(config.Default(), tpTrace(t, 2000))
		if err != nil {
			t.Fatal(err)
		}
		s.reuse.start()
		s.reuse.push(badOp, 1)
		wantPanic(t, recovered(func() { s.Run() }))
		waitNoHelper(t)
	})
}

// TestSubBatchRunStartsNoHelper: a run whose updates never fill one
// batch applies them inline at the end and starts no goroutine, even
// with processors to spare.
func TestSubBatchRunStartsNoHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// About 3,000 updates, nearly all demand misses.
	s, err := newSystem(config.Default(), tpTrace(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.reuse.work != nil || s.reuse.mode != reuseUndecided {
		t.Fatal("a run shorter than one batch started a helper")
	}
	if s.demandTxns == 0 {
		t.Fatal("the run logged no demand misses: the trace is too short to test anything")
	}
}

// TestHelperFitsProcessorRule: a run starts a helper only while twice
// the most runs the process has had in flight at once fit in
// GOMAXPROCS. A lone run starts one; a run beside two others does not,
// and neither does a lone run after it.
func TestHelperFitsProcessorRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	inFlight, peak := runsInFlight.Load(), runsPeak.Load()
	defer func() { runsInFlight.Store(inFlight); runsPeak.Store(peak) }()
	for runs, want := range []bool{true, true, true, false, false} {
		runsPeak.Store(int32(runs))
		if got := helperFits(); got != want {
			t.Errorf("at most %d runs in flight on 4 processors: helperFits = %v, want %v", runs, got, want)
		}
	}

	run := func() *System {
		s, err := newSystem(config.Default().WithMechanism(config.Combined), tpTrace(t, 2000))
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s
	}
	runsInFlight.Store(0)
	runsPeak.Store(0)
	if s := run(); s.reuse.work == nil {
		t.Error("a lone run on 4 processors applied its updates inline")
	}
	waitNoHelper(t)
	if got := runsPeak.Load(); got != 1 {
		t.Errorf("after a lone run, runsPeak = %d, want 1", got)
	}

	runsInFlight.Store(2) // with this run, 3 runs want 6 processors
	if s := run(); s.reuse.work != nil || s.reuse.mode != reuseInline {
		t.Error("a run started a helper with no processor to spare")
	}
	runsInFlight.Store(0)
	if s := run(); s.reuse.work != nil || s.reuse.mode != reuseInline {
		t.Error("a lone run started a helper after three runs had been in flight at once")
	}
}

// TestReuseHelperInheritsLabels: the helper carries the profiler labels
// of the goroutine that starts it, so a job's CPU profile includes its
// tracker updates.
func TestReuseHelperInheritsLabels(t *testing.T) {
	pprof.Do(context.Background(), pprof.Labels("input", "reuse-label-test"), func(context.Context) {
		r := newReuseTracker()
		defer r.stop()
		r.start()
		// A drain is a round trip through the helper, so it has run and
		// is back waiting for work when the profile is taken.
		r.recordAttempt(1)
		r.drain()
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, ".(*reuseTracker).serve+") {
				if !strings.Contains(rec, `"input":"reuse-label-test"`) {
					t.Fatalf("helper goroutine lacks the job's labels:\n%s", rec)
				}
				return
			}
		}
		t.Fatalf("no helper goroutine in the profile:\n%s", buf.String())
	})
}

// recordReuseStream replays a TP combined run and returns every update
// it logged, in log order, by standing in for the helper.
func recordReuseStream(t testing.TB) []reuseUpdate {
	s, err := newSystem(config.Default().WithMechanism(config.Combined), tpTrace(t, 4000))
	if err != nil {
		t.Fatal(err)
	}
	var stream []reuseUpdate
	r := s.reuse
	r.mode = reuseHelper
	r.work = make(chan *reuseBatch, 2)
	r.free = make(chan *reuseBatch, 2)
	r.done = make(chan struct{})
	r.free <- new(reuseBatch)
	go func() {
		defer close(r.done)
		for b := range r.work {
			for i, key := range b.keys[:b.n] {
				stream = append(stream, reuseUpdate{op: b.ops[i], key: key})
			}
			r.free <- b
		}
	}()
	s.Run()
	return stream
}

// TestReuseLogAllocationFree: once the table has grown to a stream's
// lines, logging and applying the stream allocates nothing, inline or
// on the helper.
func TestReuseLogAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	stream := recordReuseStream(t)
	for _, mode := range []string{"inline", "helper"} {
		r := trackerIn(mode)
		replay := func() {
			for _, u := range stream {
				r.push(u.op, u.key)
			}
			r.drain()
		}
		replay() // grow the table
		if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
			t.Errorf("%s: replaying %d updates allocates %.0f times", mode, len(stream), allocs)
		}
		r.stop()
	}
}

// BenchmarkReuseTracker times one logged update of a recorded TP
// combined update stream, applied inline or on the helper, once the
// table has grown to the stream's lines. The helper's time per update
// is how fast the log drains when the run outpaces the helper.
func BenchmarkReuseTracker(b *testing.B) {
	stream := recordReuseStream(b)
	for _, mode := range []string{"inline", "helper"} {
		b.Run(mode, func(b *testing.B) {
			r := trackerIn(mode)
			defer r.stop()
			for _, u := range stream {
				r.push(u.op, u.key)
			}
			r.drain()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				u := stream[i%len(stream)]
				r.push(u.op, u.key)
			}
			r.drain()
		})
	}
}
