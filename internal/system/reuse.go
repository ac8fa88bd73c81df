package system

import "cmpcache/internal/stats"

// reuseTracker measures write-back reuse (the paper's Table 2): for
// every line it remembers whether a write back is "pending reuse" and
// scores the next demand miss on that line as a reuse of that write
// back. Attempted write backs and L3-accepted write backs are tracked
// separately, since the paper reports reuse as a percentage of both.
// It also accumulates the per-line re-reference-after-write-back counts
// behind the paper's Figure 4 discussion ("many lines in Trade2 are
// written back and then re-referenced more than 300 times"), and
// whether the line has ever completed an L3 insert (the clean-write-back
// split of Table 1's diagnostics).
//
// The per-line records live by value in one open-addressed table
// (linear probing, power-of-two size), so each hook costs a single probe
// sequence and tracking a line allocates nothing beyond table growth.
type reuseTracker struct {
	slots []lineReuse
	used  int
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits

	attempted      uint64
	accepted       uint64
	reusedAttempt  uint64
	reusedAccepted uint64
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

func newReuseTracker() *reuseTracker {
	return &reuseTracker{slots: make([]lineReuse, 1<<reuseInitialLog), shift: 64 - reuseInitialLog}
}

// home is key's first probe slot (Fibonacci hashing).
func (r *reuseTracker) home(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> r.shift }

// find returns key's record, or nil when the line was never tracked.
func (r *reuseTracker) find(key uint64) *lineReuse {
	mask := uint64(len(r.slots) - 1)
	for i := r.home(key); ; i = (i + 1) & mask {
		l := &r.slots[i]
		if l.flags == 0 {
			return nil
		}
		if l.key == key {
			return l
		}
	}
}

// line returns key's record, inserting an empty one when absent.
func (r *reuseTracker) line(key uint64) *lineReuse {
	mask := uint64(len(r.slots) - 1)
	for i := r.home(key); ; i = (i + 1) & mask {
		l := &r.slots[i]
		if l.flags == 0 {
			if 4*(r.used+1) > 3*len(r.slots) {
				r.grow()
				return r.line(key)
			}
			r.used++
			*l = lineReuse{key: key, flags: lineUsed}
			return l
		}
		if l.key == key {
			return l
		}
	}
}

// grow doubles the table and reinserts every record.
func (r *reuseTracker) grow() {
	old := r.slots
	r.slots = make([]lineReuse, 2*len(old))
	r.shift--
	mask := uint64(len(r.slots) - 1)
	for _, l := range old {
		if l.flags == 0 {
			continue
		}
		i := r.home(l.key)
		for r.slots[i].flags != 0 {
			i = (i + 1) & mask
		}
		r.slots[i] = l
	}
}

// recordAttempt notes a write back entering an L2 write-back queue.
func (r *reuseTracker) recordAttempt(key uint64) {
	r.attempted++
	r.line(key).flags |= linePendingAttempt | lineEverWrittenBack
}

// recordAccepted notes a write back absorbed by the L3.
func (r *reuseTracker) recordAccepted(key uint64) {
	r.accepted++
	r.line(key).flags |= linePendingAccepted
}

// recordDemandMiss scores a demand miss against pending write backs.
func (r *reuseTracker) recordDemandMiss(key uint64) {
	l := r.find(key)
	if l == nil {
		return
	}
	if l.flags&linePendingAttempt != 0 {
		r.reusedAttempt++
	}
	if l.flags&linePendingAccepted != 0 {
		r.reusedAccepted++
	}
	l.flags &^= linePendingAttempt | linePendingAccepted
	if l.flags&lineEverWrittenBack != 0 {
		l.rerefs++
	}
}

// recordL3Insert notes that key completed an insert into the L3 array.
func (r *reuseTracker) recordL3Insert(key uint64) {
	r.line(key).flags |= lineEverInL3
}

// everInL3 reports whether key has ever completed an L3 insert.
func (r *reuseTracker) everInL3(key uint64) bool {
	l := r.find(key)
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

func (r *reuseTracker) snapshot() ReuseStats {
	out := ReuseStats{
		Attempted:      r.attempted,
		Accepted:       r.accepted,
		ReusedAttempt:  r.reusedAttempt,
		ReusedAccepted: r.reusedAccepted,
	}
	for i := range r.slots {
		if l := &r.slots[i]; l.flags&lineEverWrittenBack != 0 {
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
