package trace

// Stream yields one thread's reference stream in order, a chunk at a
// time. A nil chunk with a nil error marks the end of the stream. The
// returned slice is only valid until the next NextChunk call — streaming
// readers reuse the decode buffer so replaying a multi-billion-record
// trace holds one chunk per thread in memory, never the whole trace.
type Stream interface {
	NextChunk() ([]Record, error)
}

// Source is a replayable trace whose per-thread streams can be consumed
// without materializing every record: the sharded on-disk store
// (Sharded) streams batches from disk, MemSource adapts an in-memory
// Trace. Record counts are exact — sizing decisions (event-queue
// pre-allocation, pool priming) rely on them.
type Source interface {
	Name() string
	Threads() int
	Records() int64
	ThreadRecords(tid int) int64
	Stream(tid int) Stream
}

// MemSource adapts an in-memory Trace to the Source interface. It holds
// only the trace's per-thread split; each thread's stream yields its
// whole record slice as a single chunk. A MemSource is read-only, so any
// number of runs may replay it, concurrently or in turn.
type MemSource struct {
	name    string
	records int64
	streams [][]Record
}

// NewMemSource validates t and splits its records per thread once.
func NewMemSource(t *Trace) (*MemSource, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &MemSource{name: t.Name, records: int64(len(t.Records)), streams: t.PerThread()}, nil
}

// Name returns the trace name.
func (m *MemSource) Name() string { return m.name }

// Threads returns the trace thread count.
func (m *MemSource) Threads() int { return len(m.streams) }

// Records returns the total record count.
func (m *MemSource) Records() int64 { return m.records }

// ThreadRecords returns thread tid's record count.
func (m *MemSource) ThreadRecords(tid int) int64 {
	if tid < 0 || tid >= len(m.streams) {
		return 0
	}
	return int64(len(m.streams[tid]))
}

// Stream returns thread tid's single-chunk stream.
func (m *MemSource) Stream(tid int) Stream {
	if tid < 0 || tid >= len(m.streams) {
		return &sliceStream{}
	}
	return &sliceStream{recs: m.streams[tid]}
}

// sliceStream yields one in-memory slice as a single chunk.
type sliceStream struct {
	recs []Record
	used bool
}

func (s *sliceStream) NextChunk() ([]Record, error) {
	if s.used || len(s.recs) == 0 {
		return nil, nil
	}
	s.used = true
	return s.recs, nil
}

// SummarizeSource computes Stats over a streaming source one chunk at a
// time, holding only the distinct-line set in memory. It is the
// streaming counterpart of Trace.Summarize and produces identical stats
// for equivalent inputs.
func SummarizeSource(src Source, lineBytes int) (Stats, error) {
	a := newStatsAccum(src.Threads(), lineBytes)
	for tid := 0; tid < src.Threads(); tid++ {
		st := src.Stream(tid)
		for {
			chunk, err := st.NextChunk()
			if err != nil {
				return Stats{}, err
			}
			if chunk == nil {
				break
			}
			for _, r := range chunk {
				a.add(r)
			}
		}
	}
	return a.finish(), nil
}
