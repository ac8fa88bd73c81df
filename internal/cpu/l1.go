package cpu

import (
	"math/bits"

	"cmpcache/internal/cache"
	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

// L1Filter turns a raw per-thread reference stream into the L2-traffic
// stream the simulator consumes, mirroring how the paper's traces were
// produced ("we have L2 cache traffic traces captured on a real SMP
// machine"): references that hit in a private Harvard L1 are absorbed,
// with their compute gaps folded into the next emitted record.
//
// The data cache is modeled write-through with a gathering store buffer:
// a store to a line resident in the L1 is absorbed (gathered into an
// existing L2 copy), while a store missing the L1 is emitted as L2
// store traffic without allocating an L1 line (no-write-allocate).
type L1Filter struct {
	dcache    *cache.Cache
	icache    *cache.Cache
	lineShift uint

	refs     uint64
	absorbed uint64
}

// l1Valid is the single state used for filter lines (presence only).
const l1Valid int8 = 1

// NewL1Filter builds a filter with cfg's L1 geometry.
func NewL1Filter(cfg *config.Config) *L1Filter {
	dLines := cfg.L1KB * 1024 / cfg.LineBytes
	iLines := cfg.L1IKB * 1024 / cfg.LineBytes
	return &L1Filter{
		dcache:    cache.New(dLines/cfg.L1Assoc, cfg.L1Assoc),
		icache:    cache.New(iLines/cfg.L1IAssoc, cfg.L1IAssoc),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
}

// Filter processes one thread's raw stream and returns the records that
// miss the L1. Each L1 hit's gap (plus a one-cycle hit cost) accumulates
// into the following emitted record so issue density is preserved.
func (f *L1Filter) Filter(recs []trace.Record) []trace.Record {
	out := make([]trace.Record, 0, len(recs)/2)
	var pendingGap uint64
	for _, r := range recs {
		f.refs++
		key := r.Addr >> f.lineShift
		var miss bool
		switch r.Op {
		case trace.Ifetch:
			miss = f.icache.LookupTouch(key) == nil
			if miss {
				f.icache.Insert(key, l1Valid, 0, true)
			}
		case trace.Load:
			miss = f.dcache.LookupTouch(key) == nil
			if miss {
				f.dcache.Insert(key, l1Valid, 0, true)
			}
		case trace.Store:
			// Write-through, no-write-allocate: emit only on miss.
			miss = f.dcache.LookupTouch(key) == nil
		default:
			miss = true
		}
		if !miss {
			f.absorbed++
			pendingGap += uint64(r.Gap) + 1 // +1: L1 hit occupies a cycle
			continue
		}
		r.Gap = saturate32(uint64(r.Gap) + pendingGap)
		pendingGap = 0
		out = append(out, r)
	}
	return out
}

func saturate32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// HitRate returns the filter's absorption rate.
func (f *L1Filter) HitRate() float64 {
	if f.refs == 0 {
		return 0
	}
	return float64(f.absorbed) / float64(f.refs)
}

// FilterTrace applies per-thread L1 filters to a whole trace, returning
// the L2-traffic trace with its records grouped by thread in ascending
// thread order. Each thread gets private L1 state, matching the
// per-core Harvard caches of Figure 1 (SMT siblings sharing an L1 is a
// second-order effect we fold into per-thread filtering).
func FilterTrace(cfg *config.Config, t *trace.Trace) *trace.Trace {
	streams := t.PerThread()
	out := &trace.Trace{Name: t.Name, Threads: t.Threads}
	for _, recs := range streams {
		f := NewL1Filter(cfg)
		out.Records = append(out.Records, f.Filter(recs)...)
	}
	return out
}
