package wbpolicy

import "cmpcache/internal/config"

// reuse implements the reuse-distance clean copy-back policy (after
// arXiv 2105.14442): each L2 keeps a small sketch tracking, per line
// tag, the EWMA of its reuse distance — how many of this L2's demand
// misses elapse between evicting the line and missing on it again. A
// clean victim whose trained distance exceeds MaxDistance is predicted
// to age out of the L3 before its next use, so its copy-back is
// suppressed outright; short-distance lines copy back so their re-fetch
// hits the L3 instead of memory. Unlike the WBHT — which learns where a
// line IS (already L3-resident) — the sketch learns when the line will
// be WANTED, so it also suppresses the long tail of dead lines the L3
// holds but will evict before any reuse.
//
// Everything is per L2 and counted in that L2's own misses: the policy
// has no chip-wide state, observes no bus combine and ignores the
// retry switch.
type reuse struct {
	Base
	sketches []*sketch
	stats    Stats
}

func newReuse(cfg *config.Config) *reuse {
	p := &reuse{sketches: make([]*sketch, cfg.NumL2())}
	for i := range p.sketches {
		p.sketches[i] = newSketch(cfg.ReuseDist)
	}
	return p
}

// Stats sums the per-L2 counters (results time).
func (p *reuse) Stats() *Stats {
	p.stats = Stats{}
	for _, a := range p.sketches {
		p.stats.SketchEvictions += a.evictions
		p.stats.SketchSamples += a.samples
		p.stats.PredictConsults += a.consults
		p.stats.PredictCold += a.cold
		p.stats.PredictAborts += a.aborts
		p.stats.AbortsLineInL3 += a.abortsInL3
	}
	return &p.stats
}

// sketchEntry tracks one line tag's reuse behavior.
type sketchEntry struct {
	tag     uint64
	evictAt uint64 // this L2's miss count at the last eviction
	dist    uint64 // EWMA reuse distance, in misses
	trained bool   // dist holds at least one sample
	pending bool   // evicted and not yet re-missed
}

// sketch is one L2's table. It is set-associative with true LRU inside
// each set (MRU at index 0), sized and replaced like the mechanism
// tables; its updates are allocation-free.
type sketch struct {
	sets    [][]sketchEntry
	setMask uint64
	maxDist uint64
	shift   uint // EWMA weight: sample contributes 1/2^shift

	misses uint64 // this L2's demand-miss clock

	evictions  uint64
	samples    uint64
	consults   uint64
	cold       uint64
	aborts     uint64
	abortsInL3 uint64
}

func newSketch(cfg config.ReuseDistConfig) *sketch {
	nsets := cfg.Entries / cfg.Assoc
	if nsets < 1 || nsets&(nsets-1) != 0 {
		panic("wbpolicy: reusedist sets must be a positive power of two")
	}
	a := &sketch{
		sets:    make([][]sketchEntry, nsets),
		setMask: uint64(nsets - 1),
		maxDist: cfg.MaxDistance,
		shift:   cfg.EWMAShift,
	}
	backing := make([]sketchEntry, nsets*cfg.Assoc)
	for i := range a.sets {
		a.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return a
}

// lookup returns key's entry moved to MRU, or nil.
func (a *sketch) lookup(key uint64) *sketchEntry {
	set := a.sets[key&a.setMask]
	for i := range set {
		if set[i].tag == key && (set[i].trained || set[i].pending) {
			if i > 0 {
				e := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = e
			}
			return &set[0]
		}
	}
	return nil
}

// touch returns key's entry moved to MRU, allocating the LRU way when
// absent (the displaced tag's history is forgotten).
func (a *sketch) touch(key uint64) *sketchEntry {
	if e := a.lookup(key); e != nil {
		return e
	}
	set := a.sets[key&a.setMask]
	last := len(set) - 1
	copy(set[1:], set[:last])
	set[0] = sketchEntry{tag: key}
	return &set[0]
}

// ObserveLocalMiss advances L2 l2's miss clock and closes any pending
// eviction interval for key, folding the measured distance into the
// tag's EWMA.
func (p *reuse) ObserveLocalMiss(l2 int, key uint64) {
	a := p.sketches[l2]
	a.misses++
	e := a.lookup(key)
	if e == nil || !e.pending {
		return
	}
	sample := a.misses - e.evictAt
	if e.trained {
		e.dist += (sample >> a.shift) - (e.dist >> a.shift)
	} else {
		e.dist = sample
		e.trained = true
	}
	e.pending = false
	a.samples++
}

// ObserveEviction opens a reuse interval: the next local miss on key
// measures one reuse distance. Re-evicting before any re-miss just
// restarts the interval (the first eviction's interval was unbounded
// anyway).
func (p *reuse) ObserveEviction(l2 int, key uint64) {
	a := p.sketches[l2]
	e := a.touch(key)
	e.evictAt = a.misses
	e.pending = true
	a.evictions++
}

// AbortCleanWB suppresses the copy-back when the trained distance says
// the L3 will have evicted the line before its reuse. Untrained lines
// copy back — the baseline-conservative default. The policy ignores
// switchActive (it is not retry-gated; its cost model is the sketch
// itself) and uses inL3 only to score how often a suppressed copy-back
// was free because the L3 already held the line.
func (p *reuse) AbortCleanWB(l2 int, key uint64, _ bool, inL3 bool) bool {
	a := p.sketches[l2]
	e := a.lookup(key)
	if e == nil || !e.trained {
		a.cold++
		return false
	}
	a.consults++
	if e.dist > a.maxDist {
		a.aborts++
		if inL3 {
			a.abortsInL3++
		}
		return true
	}
	return false
}
