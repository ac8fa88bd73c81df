package system

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"cmpcache/internal/stats"
)

// reuseTracker measures write-back reuse (the paper's Table 2): for
// every line it remembers whether a write back is "pending reuse" and
// scores the next demand miss on that line as a reuse of that write
// back. Attempted write backs and L3-accepted write backs are tracked
// separately, since the paper reports reuse as a percentage of both.
// It also accumulates the per-line re-reference-after-write-back counts
// behind the paper's Figure 4 discussion ("many lines in Trade2 are
// written back and then re-referenced more than 300 times"), and
// whether the line has ever completed an L3 insert, which splits
// non-redundant clean write backs into first-time writes and lines the
// L3 has since lost (Table 1's diagnostics).
//
// Nothing in the simulated chip reads the tracker, so its updates leave
// the event loop: each hook appends one (op, key) update to a fixed
// batch, and full batches are applied in log order to the reuseTable.
// When the run's first batch fills, the tracker starts a helper
// goroutine to apply them if the process has a processor to spare for
// it (helperFits), and otherwise applies that batch and every later one
// on the run's goroutine. snapshot hands over the last, partial batch
// and waits for every batch before it reads the table, so the results
// are the same bytes either way.
type reuseTracker struct {
	cur  *reuseBatch // the batch being filled
	n    int         // updates in cur
	mode reuseMode

	// The helper's channels: full batches go out on work in log order
	// and come back on free once applied; done closes when the helper
	// exits. failed is the panic the helper recovered, if any, written
	// before done closes.
	work   chan *reuseBatch
	free   chan *reuseBatch
	done   chan struct{}
	failed any

	// table is the applied state. While a helper runs, only the helper
	// touches it, and the run's goroutine reads it after drain.
	table reuseTable
	first reuseBatch // the log's first batch; a helper adds a second
}

// reuseBatchLen is the number of updates in a full batch.
const reuseBatchLen = 4096

// reuseBatch is one batch of the update log.
type reuseBatch struct {
	keys [reuseBatchLen]uint64
	ops  [reuseBatchLen]reuseOp
	n    int // updates in the batch, set when it is handed over
}

// reuseOp is one kind of update in the log.
type reuseOp uint8

const (
	opAttempt    reuseOp = iota // a write back entered an L2 write-back queue
	opAccepted                  // the L3 accepted a write back
	opDemandMiss                // a demand miss reached the bus
	opL3Insert                  // a line completed an L3 insert
	opCleanWB                   // the L3 took a clean write back it did not hold
)

type reuseMode uint8

const (
	reuseUndecided reuseMode = iota // no batch has filled yet
	reuseInline                     // batches apply on the run's goroutine
	reuseHelper                     // a helper goroutine applies batches
)

// runsInFlight counts the RunContext calls in progress in the process,
// and runsPeak is the most there have been at once. The processor rule
// weighs every run in the process, so both are process-wide.
var runsInFlight, runsPeak atomic.Int32

// runStarted counts one more run in flight. RunContext calls it, and
// subtracts the run from runsInFlight when it returns.
func runStarted() {
	n := runsInFlight.Add(1)
	for p := runsPeak.Load(); n > p && !runsPeak.CompareAndSwap(p, n); p = runsPeak.Load() {
	}
}

// helperFits is the processor rule: a run may start a helper only while
// the most runs the process has had in flight at once could each have
// two processors, its own and its helper's. A sweep or daemon pool whose
// runs have once held every processor therefore applies every later
// run's updates inline, also a run that finds itself alone: between
// jobs, a daemon's request handlers need the processor a helper would
// take.
func helperFits() bool {
	return 2*int(runsPeak.Load()) <= runtime.GOMAXPROCS(0)
}

func newReuseTracker() *reuseTracker {
	r := &reuseTracker{table: newReuseTable()}
	r.cur = &r.first
	return r
}

// recordAttempt notes a write back entering an L2 write-back queue.
func (r *reuseTracker) recordAttempt(key uint64) { r.push(opAttempt, key) }

// recordAccepted notes a write back absorbed by the L3.
func (r *reuseTracker) recordAccepted(key uint64) { r.push(opAccepted, key) }

// recordDemandMiss scores a demand miss against pending write backs.
func (r *reuseTracker) recordDemandMiss(key uint64) { r.push(opDemandMiss, key) }

// recordL3Insert notes that key completed an insert into the L3 array.
func (r *reuseTracker) recordL3Insert(key uint64) { r.push(opL3Insert, key) }

// recordCleanWB counts a clean write back the L3 snooped without
// holding the line, as a first-time write or a line the L3 has lost,
// by whether key completed an L3 insert before it.
func (r *reuseTracker) recordCleanWB(key uint64) { r.push(opCleanWB, key) }

// push appends one update to the log. The mask changes nothing, since
// n < reuseBatchLen, but lets the compiler drop the bounds checks.
func (r *reuseTracker) push(op reuseOp, key uint64) {
	i := r.n & (reuseBatchLen - 1)
	r.cur.keys[i] = key
	r.cur.ops[i] = op
	if r.n = i + 1; r.n == reuseBatchLen {
		r.handOff()
	}
}

// handOff passes a full batch on. The first one decides whether a
// helper starts.
func (r *reuseTracker) handOff() {
	if r.mode == reuseUndecided {
		if helperFits() {
			r.start()
		} else {
			r.mode = reuseInline
		}
	}
	r.send()
}

// send applies cur's updates inline, or queues cur for the helper and
// takes the other batch back to fill.
func (r *reuseTracker) send() {
	r.cur.n, r.n = r.n, 0
	if r.mode != reuseHelper {
		r.table.apply(r.cur)
		return
	}
	r.work <- r.cur
	r.cur = r.take()
}

// start launches the helper with a second batch for the log to fill
// while the helper applies the first. The helper inherits the calling
// goroutine's profiler labels. Each channel holds both batches, so no
// send on either ever waits.
func (r *reuseTracker) start() {
	r.mode = reuseHelper
	r.work = make(chan *reuseBatch, 2)
	r.free = make(chan *reuseBatch, 2)
	r.done = make(chan struct{})
	r.free <- new(reuseBatch)
	go r.serve(r.work, r.free, r.done)
}

// serve is the helper: it applies each batch in order and returns it,
// until stop closes work or applying a batch panics. It records the
// panic before done closes.
func (r *reuseTracker) serve(work <-chan *reuseBatch, free chan<- *reuseBatch, done chan<- struct{}) {
	defer close(done)
	defer func() { r.failed = recover() }()
	for b := range work {
		r.table.apply(b)
		free <- b
	}
}

// take receives an applied batch back from the helper. A helper that
// exits before stop has panicked, and take re-raises the panic here, on
// the run's goroutine, rather than wait for a batch that never comes.
func (r *reuseTracker) take() *reuseBatch {
	select {
	case b := <-r.free:
		return b
	case <-r.done:
		r.mode = reuseInline
		panic(r.failed)
	}
}

// drain applies every update logged so far: inline, or by handing the
// partial batch to the helper and waiting until both batches are back.
func (r *reuseTracker) drain() {
	if r.mode != reuseHelper {
		r.send()
		return
	}
	if r.n > 0 {
		r.send()
	}
	r.free <- r.take()
}

// stop ends the helper, if one runs, once it has applied every batch
// handed to it, and re-raises a panic it recovered. Updates logged
// after stop apply inline. RunContext stops the tracker on every exit.
func (r *reuseTracker) stop() {
	if r.mode != reuseHelper {
		return
	}
	r.mode = reuseInline
	close(r.work)
	<-r.done
	if r.failed != nil {
		panic(r.failed)
	}
}

// snapshot drains the log and reads the Table 2 statistics.
func (r *reuseTracker) snapshot() ReuseStats {
	r.drain()
	return r.table.stats()
}

// reuseTable holds the per-line records, by value, in one open-addressed
// table (linear probing, power-of-two size), so each update costs a
// single probe sequence and tracking a line allocates nothing beyond
// table growth.
type reuseTable struct {
	slots []lineReuse
	used  int
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits

	attempted      uint64
	accepted       uint64
	reusedAttempt  uint64
	reusedAccepted uint64
	cleanWBFirst   uint64 // clean write backs of lines never in the L3
	cleanWBLost    uint64 // clean write backs of lines the L3 has lost
}

type lineReuse struct {
	key    uint64
	rerefs uint32 // demand misses after the first write back
	flags  uint8  // lineUsed marks an occupied slot
}

const (
	lineUsed uint8 = 1 << iota
	linePendingAttempt
	linePendingAccepted
	lineEverWrittenBack
	lineEverInL3
)

// reuseInitialLog is log2 of the table's starting slot count.
const reuseInitialLog = 12

func newReuseTable() reuseTable {
	return reuseTable{slots: make([]lineReuse, 1<<reuseInitialLog), shift: 64 - reuseInitialLog}
}

// apply applies b's updates in order.
func (t *reuseTable) apply(b *reuseBatch) {
	for i, key := range b.keys[:b.n] {
		switch op := b.ops[i]; op {
		case opAttempt:
			t.attempt(key)
		case opAccepted:
			t.accept(key)
		case opDemandMiss:
			t.demandMiss(key)
		case opL3Insert:
			t.l3Insert(key)
		case opCleanWB:
			t.cleanWB(key)
		default:
			panic(fmt.Sprintf("system: reuse log holds unknown op %d", op))
		}
	}
}

// home is key's first probe slot (Fibonacci hashing).
func (t *reuseTable) home(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> t.shift }

// find returns key's record, or nil when the line was never tracked.
func (t *reuseTable) find(key uint64) *lineReuse {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		l := &t.slots[i]
		if l.flags == 0 {
			return nil
		}
		if l.key == key {
			return l
		}
	}
}

// line returns key's record, inserting an empty one when absent.
func (t *reuseTable) line(key uint64) *lineReuse {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		l := &t.slots[i]
		if l.flags == 0 {
			if 4*(t.used+1) > 3*len(t.slots) {
				t.grow()
				return t.line(key)
			}
			t.used++
			*l = lineReuse{key: key, flags: lineUsed}
			return l
		}
		if l.key == key {
			return l
		}
	}
}

// grow doubles the table and reinserts every record.
func (t *reuseTable) grow() {
	old := t.slots
	t.slots = make([]lineReuse, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, l := range old {
		if l.flags == 0 {
			continue
		}
		i := t.home(l.key)
		for t.slots[i].flags != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = l
	}
}

func (t *reuseTable) attempt(key uint64) {
	t.attempted++
	t.line(key).flags |= linePendingAttempt | lineEverWrittenBack
}

func (t *reuseTable) accept(key uint64) {
	t.accepted++
	t.line(key).flags |= linePendingAccepted
}

func (t *reuseTable) demandMiss(key uint64) {
	l := t.find(key)
	if l == nil {
		return
	}
	if l.flags&linePendingAttempt != 0 {
		t.reusedAttempt++
	}
	if l.flags&linePendingAccepted != 0 {
		t.reusedAccepted++
	}
	l.flags &^= linePendingAttempt | linePendingAccepted
	if l.flags&lineEverWrittenBack != 0 {
		l.rerefs++
	}
}

func (t *reuseTable) l3Insert(key uint64) {
	t.line(key).flags |= lineEverInL3
}

func (t *reuseTable) cleanWB(key uint64) {
	if t.everInL3(key) {
		t.cleanWBLost++
	} else {
		t.cleanWBFirst++
	}
}

// everInL3 reports whether key has ever completed an L3 insert.
func (t *reuseTable) everInL3(key uint64) bool {
	l := t.find(key)
	return l != nil && l.flags&lineEverInL3 != 0
}

// ReuseStats is the Table 2 output plus the re-reference histogram.
type ReuseStats struct {
	Attempted      uint64
	Accepted       uint64
	ReusedAttempt  uint64
	ReusedAccepted uint64
	Rerefs         stats.Histogram // per-line misses after first write back
}

func (t *reuseTable) stats() ReuseStats {
	out := ReuseStats{
		Attempted:      t.attempted,
		Accepted:       t.accepted,
		ReusedAttempt:  t.reusedAttempt,
		ReusedAccepted: t.reusedAccepted,
	}
	for i := range t.slots {
		if l := &t.slots[i]; l.flags&lineEverWrittenBack != 0 {
			out.Rerefs.Observe(uint64(l.rerefs))
		}
	}
	return out
}

// PctTotalReused returns reused write backs as a percentage of all
// attempted write backs (Table 2, "% Total").
func (s ReuseStats) PctTotalReused() float64 {
	return stats.Percent(s.ReusedAttempt, s.Attempted)
}

// PctAcceptedReused returns reused write backs as a percentage of
// L3-accepted write backs (Table 2, "% Accepted").
func (s ReuseStats) PctAcceptedReused() float64 {
	return stats.Percent(s.ReusedAccepted, s.Accepted)
}
