package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a program or a layer.
// Spans of one operation share Op; for a cmpserved operation Op is also
// the X-Request-Id the requests carried, so the daemon's log lines for
// the operation can be joined to its spans.
type span struct {
	Op     string `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Refs   int64  `json:"refs,omitempty"` // references the call processed, for per-reference rates
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how the untraced run calls the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(op string, parent int, name string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Op: op, ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(l.spans)
}

// end closes span id, recording how many references the call processed.
func (l *spanLog) end(id int, refs int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
	l.spans[id-1].Refs = refs
}

// write stores the spans as JSON Lines, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its child
// spans cover. Overlapping children are counted once, and a child's time
// outside its parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		var covered int64
		end := s.Start // covered up to here
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
