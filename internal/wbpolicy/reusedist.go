package wbpolicy

import (
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
)

// reuseChip implements the reuse-distance clean copy-back policy (after
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
// Everything is per-L2 (agent-owned) and counted in that L2's own
// misses, so training runs on the slice lane with no shared state and
// no switch gating; the chip half is entirely passive.
type reuseChip struct {
	agents []*reuseAgent
	stats  Stats
}

func newReuseChip(cfg *config.Config) *reuseChip {
	p := &reuseChip{}
	for i := 0; i < cfg.NumL2(); i++ {
		p.agents = append(p.agents, newReuseAgent(cfg.ReuseDist))
	}
	return p
}

func (p *reuseChip) Agent(idx int) Agent                                                    { return p.agents[idx] }
func (p *reuseChip) SnoopsWBRing() bool                                                     { return false }
func (p *reuseChip) GatedBySwitch() bool                                                    { return false }
func (p *reuseChip) UseUpdate(uint64) bool                                                  { return false }
func (p *reuseChip) ObserveWriteBack(uint64)                                                {}
func (p *reuseChip) ObserveCleanWBOutcome(int, uint64, bool)                                {}
func (p *reuseChip) ObserveDemandMiss(uint64)                                               {}
func (p *reuseChip) ObserveDemandOutcome(int, uint64, coherence.TxnKind, coherence.Outcome) {}

// Stats sums the per-agent counters (serial context, results time).
func (p *reuseChip) Stats() *Stats {
	p.stats = Stats{}
	for _, a := range p.agents {
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

// reuseAgent is one L2's sketch. The table is set-associative with true
// LRU inside each set (MRU at index 0), sized and replaced like the
// mechanism tables; all hooks are allocation-free.
type reuseAgent struct {
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

func newReuseAgent(cfg config.ReuseDistConfig) *reuseAgent {
	nsets := cfg.Entries / cfg.Assoc
	if nsets < 1 || nsets&(nsets-1) != 0 {
		panic("wbpolicy: reusedist sets must be a positive power of two")
	}
	a := &reuseAgent{
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
func (a *reuseAgent) lookup(key uint64) *sketchEntry {
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
func (a *reuseAgent) touch(key uint64) *sketchEntry {
	if e := a.lookup(key); e != nil {
		return e
	}
	set := a.sets[key&a.setMask]
	last := len(set) - 1
	copy(set[1:], set[:last])
	set[0] = sketchEntry{tag: key}
	return &set[0]
}

// ObserveLocalMiss advances the miss clock and closes any pending
// eviction interval for key, folding the measured distance into the
// tag's EWMA.
func (a *reuseAgent) ObserveLocalMiss(key uint64) {
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
func (a *reuseAgent) ObserveEviction(key uint64) {
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
func (a *reuseAgent) AbortCleanWB(key uint64, _ bool, inL3 bool) bool {
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

func (a *reuseAgent) FlagWriteBack(uint64) bool { return false }
func (a *reuseAgent) SnoopsWB() bool            { return false }
func (a *reuseAgent) AcceptOffer(uint64) bool   { return true }

func (a *reuseAgent) WBHT() *core.WBHT             { return nil }
func (a *reuseAgent) SnarfTable() *core.SnarfTable { return nil }
