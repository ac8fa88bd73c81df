package trace

import (
	"strings"
	"testing"
)

func sample() *Trace {
	return &Trace{
		Name:    "unit",
		Threads: 3,
		Records: []Record{
			{Thread: 0, Op: Load, Addr: 0x1000, Gap: 5},
			{Thread: 1, Op: Store, Addr: 0x2080, Gap: 0},
			{Thread: 0, Op: Ifetch, Addr: 0xffee_0000_1234, Gap: 999},
			{Thread: 2, Op: Load, Addr: 0x80, Gap: 17},
			{Thread: 0, Op: Load, Addr: 0x0, Gap: 2},
		},
	}
}

func equal(a, b *Trace) bool {
	if a.Name != b.Name || a.Threads != b.Threads || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}

func TestOpString(t *testing.T) {
	if Load.String() != "R" || Store.String() != "W" || Ifetch.String() != "I" {
		t.Fatal("unexpected op names")
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Fatal("unknown op should format numerically")
	}
}

func TestValidate(t *testing.T) {
	tr := sample()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	tr.Records[0].Thread = 99
	if tr.Validate() == nil {
		t.Fatal("out-of-range thread accepted")
	}
	tr = sample()
	tr.Records[1].Op = 7
	if tr.Validate() == nil {
		t.Fatal("invalid op accepted")
	}
	tr = sample()
	tr.Threads = 0
	if tr.Validate() == nil {
		t.Fatal("zero threads accepted")
	}
	tr = sample()
	tr.Name = "bad\xffname"
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "UTF-8") {
		t.Fatalf("name that is not UTF-8: err = %v, want a UTF-8 rejection", err)
	}
}

func TestPerThread(t *testing.T) {
	streams := sample().PerThread()
	if len(streams) != 3 {
		t.Fatalf("streams = %d, want 3", len(streams))
	}
	if len(streams[0]) != 3 || len(streams[1]) != 1 || len(streams[2]) != 1 {
		t.Fatalf("per-thread lengths = %d/%d/%d", len(streams[0]), len(streams[1]), len(streams[2]))
	}
	// Thread 0's order must be preserved.
	if streams[0][0].Addr != 0x1000 || streams[0][2].Addr != 0 {
		t.Fatal("per-thread order not preserved")
	}
}

func TestSummarize(t *testing.T) {
	s := sample().Summarize(128)
	if s.Records != 5 || s.Loads != 3 || s.Stores != 1 || s.Ifetches != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.DistinctLines != 5 {
		t.Fatalf("DistinctLines = %d, want 5", s.DistinctLines)
	}
	wantMean := float64(5+0+999+17+2) / 5
	if s.MeanGap != wantMean {
		t.Fatalf("MeanGap = %v, want %v", s.MeanGap, wantMean)
	}
	if s.FootprintBytes(128) != 5*128 {
		t.Fatalf("FootprintBytes = %d", s.FootprintBytes(128))
	}
}

func TestSummarizeSharedLinesCountedOnce(t *testing.T) {
	tr := &Trace{Name: "x", Threads: 2, Records: []Record{
		{Thread: 0, Op: Load, Addr: 0x100},
		{Thread: 1, Op: Load, Addr: 0x104}, // same 128B line
	}}
	if s := tr.Summarize(128); s.DistinctLines != 1 {
		t.Fatalf("DistinctLines = %d, want 1", s.DistinctLines)
	}
}
