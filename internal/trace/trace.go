// Package trace defines the memory-reference trace format consumed by
// the simulator. The paper feeds L2-traffic traces captured on real SMP
// machines into its cache-hierarchy simulator; this package provides the
// equivalent substrate: a compact record type, an in-memory Trace, and
// one on-disk format, the sharded capture directory (shard.go), that is
// written once and streamed with bounded memory across many
// configurations.
package trace

import (
	"fmt"
	"unicode/utf8"
)

// Op is the kind of memory reference.
type Op uint8

const (
	// Load is a data read.
	Load Op = iota
	// Store is a data write.
	Store
	// Ifetch is an instruction fetch (read-only, code stream).
	Ifetch
	numOps
)

// String returns the op's one-letter name (R, W or I).
func (o Op) String() string {
	switch o {
	case Load:
		return "R"
	case Store:
		return "W"
	case Ifetch:
		return "I"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Record is one memory reference. Gap is the number of compute cycles
// separating this reference from the thread's previous one — it encodes
// per-thread issue density and therefore memory pressure. The fields
// run from widest to narrowest, so a record packs into 16 bytes.
type Record struct {
	Addr   uint64
	Gap    uint32
	Thread uint16
	Op     Op
}

// Trace is a complete workload: an interleaving-free set of per-thread
// reference streams plus identifying metadata.
type Trace struct {
	Name    string
	Threads int
	Records []Record // grouped or interleaved; PerThread splits them
}

// Validate reports a name that is not valid UTF-8 (the manifest is
// JSON, which cannot carry it), a non-positive thread count or the
// first malformed record, or nil.
func (t *Trace) Validate() error {
	if !utf8.ValidString(t.Name) {
		return fmt.Errorf("trace: name %q is not valid UTF-8", t.Name)
	}
	if t.Threads <= 0 {
		return fmt.Errorf("trace: Threads = %d, must be positive", t.Threads)
	}
	for i, r := range t.Records {
		if int(r.Thread) >= t.Threads {
			return fmt.Errorf("trace: record %d thread %d out of range [0,%d)", i, r.Thread, t.Threads)
		}
		if r.Op >= numOps {
			return fmt.Errorf("trace: record %d has invalid op %d", i, r.Op)
		}
	}
	return nil
}

// PerThread splits the records into per-thread streams, preserving each
// thread's record order. The returned slices share no backing storage
// with future appends to t.Records.
func (t *Trace) PerThread() [][]Record {
	counts := make([]int, t.Threads)
	for _, r := range t.Records {
		counts[r.Thread]++
	}
	out := make([][]Record, t.Threads)
	for i, n := range counts {
		out[i] = make([]Record, 0, n)
	}
	for _, r := range t.Records {
		out[r.Thread] = append(out[r.Thread], r)
	}
	return out
}

// Stats summarizes a trace for reports and sanity checks.
type Stats struct {
	Records       int
	Loads         int
	Stores        int
	Ifetches      int
	DistinctLines int
	MeanGap       float64
	PerThread     []int
}

// statsAccum builds Stats record by record; Summarize and
// SummarizeSource share it so the in-memory and streaming summaries are
// the same computation.
type statsAccum struct {
	s         Stats
	lines     map[uint64]struct{}
	gapSum    uint64
	lineBytes uint64
}

func newStatsAccum(threads, lineBytes int) *statsAccum {
	return &statsAccum{
		s:         Stats{PerThread: make([]int, threads)},
		lines:     make(map[uint64]struct{}),
		lineBytes: uint64(lineBytes),
	}
}

func (a *statsAccum) add(r Record) {
	a.s.Records++
	if int(r.Thread) < len(a.s.PerThread) {
		a.s.PerThread[r.Thread]++
	}
	switch r.Op {
	case Load:
		a.s.Loads++
	case Store:
		a.s.Stores++
	case Ifetch:
		a.s.Ifetches++
	}
	a.lines[r.Addr/a.lineBytes] = struct{}{}
	a.gapSum += uint64(r.Gap)
}

func (a *statsAccum) finish() Stats {
	a.s.DistinctLines = len(a.lines)
	if a.s.Records > 0 {
		a.s.MeanGap = float64(a.gapSum) / float64(a.s.Records)
	}
	return a.s
}

// Summarize computes Stats in one pass. lineBytes sets the granularity
// for the distinct-line count.
func (t *Trace) Summarize(lineBytes int) Stats {
	a := newStatsAccum(t.Threads, lineBytes)
	for _, r := range t.Records {
		a.add(r)
	}
	return a.finish()
}

// FootprintBytes returns the distinct-line footprint in bytes.
func (s Stats) FootprintBytes(lineBytes int) int {
	return s.DistinctLines * lineBytes
}
