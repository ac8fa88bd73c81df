// Package trace defines the memory-reference trace format consumed by
// the simulator. The paper feeds L2-traffic traces captured on real SMP
// machines into its cache-hierarchy simulator; this package provides the
// equivalent substrate: a compact record type, an in-memory Trace, and
// streaming binary and text codecs so traces can be generated once and
// replayed across many configurations.
package trace

import (
	"fmt"
	"sort"
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

// String returns the canonical short name used in the text format.
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

// ParseOp inverts String.
func ParseOp(s string) (Op, error) {
	switch s {
	case "R":
		return Load, nil
	case "W":
		return Store, nil
	case "I":
		return Ifetch, nil
	default:
		return 0, fmt.Errorf("trace: unknown op %q", s)
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

// Validate reports the first malformed record, or nil.
func (t *Trace) Validate() error {
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

// Merge combines several traces into one, remapping thread IDs so each
// input occupies a disjoint thread range, in input order. Useful for
// composing multiprogrammed workloads.
func Merge(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	base := 0
	for _, tr := range traces {
		for _, r := range tr.Records {
			r.Thread += uint16(base)
			out.Records = append(out.Records, r)
		}
		base += tr.Threads
	}
	out.Threads = base
	return out
}

// SortByThread stably groups records by thread, preserving per-thread
// order. The binary codec compresses better on grouped records.
func (t *Trace) SortByThread() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].Thread < t.Records[j].Thread
	})
}
