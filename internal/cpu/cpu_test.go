package cpu

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
)

// instantIssue completes every access after a fixed latency.
func instantIssue(e *sim.Engine, latency config.Cycles) (IssueFunc, *[]uint64) {
	var keys []uint64
	return func(_ int, op trace.Op, key uint64, done func(config.Cycles)) {
		keys = append(keys, key)
		at := e.Now() + latency
		e.At(at, func() { done(at) })
	}, &keys
}

var errBroken = errors.New("broken stream")

// chunkStream serves recs in chunks of size records (all that remain
// when size is zero). Its NextChunk calls fail with errBroken once
// failAfter of them have succeeded; a negative failAfter never fails.
type chunkStream struct {
	recs      []trace.Record
	size      int
	failAfter int
}

func (s *chunkStream) NextChunk() ([]trace.Record, error) {
	if s.failAfter == 0 {
		return nil, errBroken
	}
	s.failAfter--
	n := len(s.recs)
	if s.size > 0 && s.size < n {
		n = s.size
	}
	if n == 0 {
		return nil, nil
	}
	chunk := s.recs[:n]
	s.recs = s.recs[n:]
	return chunk, nil
}

// streams serves each record slice whole from its own stream; nil
// slices are idle threads.
func streams(recs ...[]trace.Record) []trace.Stream {
	out := make([]trace.Stream, len(recs))
	for i, r := range recs {
		if r != nil {
			out[i] = &chunkStream{recs: r, failAfter: -1}
		}
	}
	return out
}

// newComplex builds a complex that must construct cleanly.
func newComplex(t *testing.T, e *sim.Engine, cfg *config.Config, ss []trace.Stream, issue IssueFunc) *Complex {
	t.Helper()
	c, err := New(e, cfg, ss, issue)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkStream(tid int, n int, gap uint32) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Thread: uint16(tid), Op: trace.Load, Addr: uint64(i) * 128, Gap: gap}
	}
	return recs
}

func TestSerialIssueWithGaps(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	cfg.MaxOutstanding = 1
	issue, keys := instantIssue(e, 10)
	c := newComplex(t, e, &cfg, streams(mkStream(0, 3, 5)), issue)
	c.Start()
	e.Run()
	if !c.Done() {
		t.Fatal("not done after run")
	}
	// With max=1 and latency 10 > gap 5: issues at 5, then next issue
	// waits for completion at 15, but gap eligibility (15+... lastIssue
	// 15? issue2 at max(5+5,15)=15, completes 25, issue3 at 25.
	if got := c.FinishTime(); got != 35 {
		t.Fatalf("FinishTime = %d, want 35", got)
	}
	if c.Issued() != 3 || c.Completed() != 3 {
		t.Fatalf("issued/completed = %d/%d", c.Issued(), c.Completed())
	}
	if len(*keys) != 3 {
		t.Fatalf("keys = %v", *keys)
	}
	// Addresses are line-shifted.
	if (*keys)[1] != 1 {
		t.Fatalf("key[1] = %d, want 1 (128B lines)", (*keys)[1])
	}
}

func TestOutstandingLimitOverlapsMisses(t *testing.T) {
	// With latency 100 and gap 0, max outstanding misses bounds overlap:
	// total time for N refs ~= ceil(N/max)*100.
	run := func(max int) config.Cycles {
		e := sim.NewEngine()
		cfg := config.Default()
		cfg.MaxOutstanding = max
		issue, _ := instantIssue(e, 100)
		c := newComplex(t, e, &cfg, streams(mkStream(0, 12, 0)), issue)
		c.Start()
		e.Run()
		return c.FinishTime()
	}
	t1, t2, t6 := run(1), run(2), run(6)
	if t1 != 1200 || t2 != 600 || t6 != 200 {
		t.Fatalf("finish times = %d/%d/%d, want 1200/600/200", t1, t2, t6)
	}
}

func TestMaxOutstandingNeverExceeded(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	cfg.MaxOutstanding = 3
	var c *Complex
	maxSeen := 0
	issue := func(_ int, op trace.Op, key uint64, done func(config.Cycles)) {
		if c.Outstanding() > maxSeen {
			maxSeen = c.Outstanding()
		}
		at := e.Now() + 50
		e.At(at, func() { done(at) })
	}
	c = newComplex(t, e, &cfg, streams(mkStream(0, 40, 1)), issue)
	c.Start()
	e.Run()
	if maxSeen > 3 {
		t.Fatalf("outstanding reached %d, limit 3", maxSeen)
	}
	if !c.Done() {
		t.Fatal("not done")
	}
}

func TestMultipleThreadsIndependent(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	cfg.MaxOutstanding = 1
	issue, _ := instantIssue(e, 10)
	c := newComplex(t, e, &cfg, streams(mkStream(0, 5, 0), mkStream(1, 5, 0), nil), issue)
	c.Start()
	e.Run()
	if !c.Done() {
		t.Fatal("not done")
	}
	// Each thread: 5 serial 10-cycle accesses = 50.
	if c.FinishTime() != 50 {
		t.Fatalf("FinishTime = %d, want 50 (threads overlap)", c.FinishTime())
	}
	if c.Issued() != 10 {
		t.Fatalf("Issued = %d, want 10", c.Issued())
	}
}

// TestIssueNamesChipThread: the issue callback receives each
// reference's chip thread, the index of the stream it came from.
func TestIssueNamesChipThread(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	issued := map[int]int{}
	issue := func(thread int, _ trace.Op, _ uint64, done func(config.Cycles)) {
		issued[thread]++
		at := e.Now() + 1
		e.At(at, func() { done(at) })
	}
	ss := make([]trace.Stream, 6)
	ss[0] = streams(mkStream(0, 2, 0))[0]
	ss[5] = streams(mkStream(5, 3, 0))[0]
	c := newComplex(t, e, &cfg, ss, issue)
	c.Start()
	e.Run()
	if want := map[int]int{0: 2, 5: 3}; !maps.Equal(issued, want) {
		t.Errorf("issues per thread %v, want %v", issued, want)
	}
}

func TestEmptyStreamsDoneImmediately(t *testing.T) {
	e := sim.NewEngine()
	cfg := config.Default()
	issue, _ := instantIssue(e, 1)
	// An idle (nil) stream and a stream that ends at once.
	c := newComplex(t, e, &cfg, []trace.Stream{nil, &chunkStream{failAfter: -1}}, issue)
	c.Start()
	e.Run()
	if !c.Done() || c.FinishTime() != 0 {
		t.Fatalf("done=%v finish=%d", c.Done(), c.FinishTime())
	}
}

func TestNilIssuePanics(t *testing.T) {
	cfg := config.Default()
	defer func() {
		if recover() == nil {
			t.Fatal("nil issue accepted")
		}
	}()
	New(sim.NewEngine(), &cfg, nil, nil)
}

// TestChunkBoundariesInvisible: the chunk size a stream is delivered in
// changes only where the thread buffers its records, never when they
// issue or complete.
func TestChunkBoundariesInvisible(t *testing.T) {
	recs := make([]trace.Record, 11)
	for i := range recs {
		recs[i] = trace.Record{Op: trace.Load, Addr: uint64(i*i) * 128, Gap: uint32(i % 4 * 3)}
	}
	type outcome struct {
		issues            []string // "cycle:key" in issue order
		issued, completed uint64
		finish            config.Cycles
	}
	replay := func(maxOut, chunk int) outcome {
		e := sim.NewEngine()
		cfg := config.Default()
		cfg.MaxOutstanding = maxOut
		var o outcome
		issue := func(_ int, op trace.Op, key uint64, done func(config.Cycles)) {
			o.issues = append(o.issues, fmt.Sprintf("%d:%d", e.Now(), key))
			at := e.Now() + 7
			e.At(at, func() { done(at) })
		}
		c := newComplex(t, e, &cfg, []trace.Stream{&chunkStream{recs: recs, size: chunk, failAfter: -1}}, issue)
		c.Start()
		e.Run()
		if !c.Done() {
			t.Fatalf("max %d, chunk %d: not done", maxOut, chunk)
		}
		o.issued, o.completed, o.finish = c.Issued(), c.Completed(), c.FinishTime()
		return o
	}
	for _, maxOut := range []int{1, 3} {
		want := replay(maxOut, 0)
		if want.issued != uint64(len(recs)) || want.completed != want.issued {
			t.Fatalf("max %d: issued/completed = %d/%d, want %d", maxOut, want.issued, want.completed, len(recs))
		}
		for _, chunk := range []int{1, 3} {
			got := replay(maxOut, chunk)
			if !slices.Equal(got.issues, want.issues) || got.issued != want.issued ||
				got.completed != want.completed || got.finish != want.finish {
				t.Errorf("max %d, chunk %d: %+v, whole stream %+v", maxOut, chunk, got, want)
			}
		}
	}
}

// TestFirstChunkErrorFailsNew: a stream that cannot deliver its first
// chunk fails construction with an error naming its chip thread, 6.
func TestFirstChunkErrorFailsNew(t *testing.T) {
	cfg := config.Default()
	e := sim.NewEngine()
	issue, _ := instantIssue(e, 1)
	ss := make([]trace.Stream, 8)
	ss[4] = streams(mkStream(4, 3, 0))[0]
	ss[6] = &chunkStream{recs: mkStream(6, 3, 0), failAfter: 0}
	_, err := New(e, &cfg, ss, issue)
	var se *StreamError
	if !errors.As(err, &se) || se.Thread != 6 || !errors.Is(err, errBroken) || !strings.Contains(err.Error(), "thread 6") {
		t.Fatalf("New = %v, want the stream error naming thread 6", err)
	}
}

// TestMidStreamErrorPanics: a stream that fails after its first chunk
// panics with a *StreamError naming its chip thread, 9, which the
// system recovers as the run's error.
func TestMidStreamErrorPanics(t *testing.T) {
	cfg := config.Default()
	e := sim.NewEngine()
	issue, _ := instantIssue(e, 1)
	ss := make([]trace.Stream, 10)
	ss[9] = &chunkStream{recs: mkStream(9, 6, 0), size: 2, failAfter: 1}
	c, err := New(e, &cfg, ss, issue)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() {
		se, _ := recover().(*StreamError)
		if se == nil || se.Thread != 9 || !errors.Is(se, errBroken) || !strings.Contains(se.Error(), "thread 9") {
			t.Fatalf("panic %v, want the stream error naming thread 9", se)
		}
	}()
	e.Run()
}

func TestL1FilterAbsorbsHits(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	recs := []trace.Record{
		{Op: trace.Load, Addr: 0x1000, Gap: 5}, // miss
		{Op: trace.Load, Addr: 0x1008, Gap: 3}, // same line: hit
		{Op: trace.Load, Addr: 0x1000, Gap: 2}, // hit
		{Op: trace.Load, Addr: 0x2000, Gap: 4}, // miss
	}
	out := f.Filter(recs)
	if len(out) != 2 {
		t.Fatalf("emitted %d records, want 2", len(out))
	}
	// Gaps of the two hits (3+1, 2+1) fold into the second miss.
	if out[1].Gap != 4+3+1+2+1 {
		t.Fatalf("accumulated gap = %d, want 11", out[1].Gap)
	}
	if f.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", f.HitRate())
	}
}

func TestL1FilterStoreNoAllocate(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	recs := []trace.Record{
		{Op: trace.Store, Addr: 0x1000}, // miss: emitted, not allocated
		{Op: trace.Store, Addr: 0x1000}, // still a miss: emitted again
		{Op: trace.Load, Addr: 0x1000},  // load miss: allocates
		{Op: trace.Store, Addr: 0x1000}, // now resident: gathered
	}
	out := f.Filter(recs)
	if len(out) != 3 {
		t.Fatalf("emitted %d, want 3 (store-no-allocate then gather)", len(out))
	}
}

func TestL1FilterSeparatesIAndD(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	recs := []trace.Record{
		{Op: trace.Load, Addr: 0x4000},   // D miss
		{Op: trace.Ifetch, Addr: 0x4000}, // same line, I stream: still a miss
	}
	if out := f.Filter(recs); len(out) != 2 {
		t.Fatalf("emitted %d, want 2 (Harvard split)", len(out))
	}
}

func TestL1FilterCapacityEviction(t *testing.T) {
	cfg := config.Default()
	f := NewL1Filter(&cfg)
	lines := cfg.L1KB * 1024 / cfg.LineBytes
	var recs []trace.Record
	// Two passes over 2x the L1 capacity: second pass must still miss.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 2*lines; i++ {
			recs = append(recs, trace.Record{Op: trace.Load, Addr: uint64(i) * 128})
		}
	}
	out := f.Filter(recs)
	if len(out) != len(recs) {
		t.Fatalf("emitted %d of %d, want all (working set 2x L1)", len(out), len(recs))
	}
}

func TestFilterTrace(t *testing.T) {
	cfg := config.Default()
	tr := &trace.Trace{Name: "x", Threads: 2, Records: []trace.Record{
		{Thread: 0, Op: trace.Load, Addr: 0x1000},
		{Thread: 1, Op: trace.Load, Addr: 0x1000}, // private L1s: also a miss
		{Thread: 0, Op: trace.Load, Addr: 0x1000}, // hit in thread 0's L1
	}}
	out := FilterTrace(&cfg, tr)
	if len(out.Records) != 2 {
		t.Fatalf("filtered records = %d, want 2", len(out.Records))
	}
	if out.Threads != 2 || out.Name != "x" {
		t.Fatal("metadata lost")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFilterTraceGroupsByThread: the filtered trace lists each thread's
// records together, in ascending thread order and each in its own
// order, whatever the input's interleaving.
func TestFilterTraceGroupsByThread(t *testing.T) {
	cfg := config.Default()
	tr := &trace.Trace{Name: "x", Threads: 2, Records: []trace.Record{
		{Thread: 1, Op: trace.Load, Addr: 0x2000},
		{Thread: 0, Op: trace.Load, Addr: 0x1000},
		{Thread: 1, Op: trace.Store, Addr: 0x3000},
		{Thread: 0, Op: trace.Ifetch, Addr: 0x4000},
	}}
	want := []trace.Record{tr.Records[1], tr.Records[3], tr.Records[0], tr.Records[2]}
	if got := FilterTrace(&cfg, tr).Records; !slices.Equal(got, want) {
		t.Fatalf("filtered records %+v, want %+v", got, want)
	}
}
