package wbpolicy

import (
	"cmpcache/internal/cache"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
)

// hybrid implements the hybrid update/invalidate coherence variant
// (after arXiv 1502.00101): a chip-wide score table counts, per line
// tag, how many peer-sourced reads combined since the last write. When
// a store's ownership claim (Upgrade) combines on a line whose score
// has reached the threshold — a producer-consumer line whose sharers
// will re-read it anyway — the writer updates the known sharers in
// place instead of invalidating them: sharers stay Shared, the writer
// becomes Tagged (dirty, shared, supplier) and pushes the new data
// across the data ring, and the consumers' next reads hit locally
// instead of re-missing on the bus. Lines below the threshold — and
// every RWITM — invalidate as usual, so migratory data keeps the
// invalidate protocol's single-copy behavior.
//
// All score state is chip-wide and is touched only at bus combine
// events, so score updates follow bus order. Scores saturate at 255 and
// decay by halving on each update push (retaining producer-consumer
// history) or reset on an invalidation (the sharer set is gone).
type hybrid struct {
	Base
	score     *cache.Cache // score lives in Meta.Flags
	threshold uint8
	stats     Stats
}

func newHybrid(cfg *config.Config) *hybrid {
	thr := cfg.HybridUI.UpdateThreshold
	if thr < 1 {
		thr = 1
	}
	if thr > 255 {
		thr = 255
	}
	return &hybrid{
		score:     cache.New(cfg.HybridUI.Entries/cfg.HybridUI.Assoc, cfg.HybridUI.Assoc),
		threshold: uint8(thr),
	}
}

func (p *hybrid) Stats() *Stats { return &p.stats }

// ObserveDemandOutcome trains the sharing score: a read that found the
// line on chip (a peer supplied it or holds it shared) is one consumer
// touch; an RWITM is an invalidating write and clears the line's score.
func (p *hybrid) ObserveDemandOutcome(_ int, key uint64, kind coherence.TxnKind, out coherence.Outcome) {
	switch kind {
	case coherence.Read:
		if !out.SharedElsewhere && !out.DirtySource {
			return
		}
		p.stats.ScoredReads++
		if l := p.score.LookupTouch(key); l != nil {
			if l.Flags < 255 {
				l.Flags++
			}
			return
		}
		p.score.Insert(key, 0, 1, true)
	case coherence.RWITM:
		if l := p.score.Lookup(key); l != nil {
			l.Flags = 0
		}
	}
}

// UseUpdate routes a non-stale ownership claim: update the sharers when
// the line's consumer score has reached the threshold (halving the
// score so sustained producer-consumer lines stay in update mode),
// otherwise invalidate (resetting the score — the sharer set this
// score described no longer exists).
func (p *hybrid) UseUpdate(key uint64) bool {
	if l := p.score.LookupTouch(key); l != nil {
		if l.Flags >= p.threshold {
			l.Flags >>= 1
			p.stats.UpdatePushes++
			return true
		}
		l.Flags = 0
	}
	p.stats.InvalidateUpgrades++
	return false
}
