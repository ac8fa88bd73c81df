package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

// exportTrace builds a minimal multi-thread trace for export tests.
func exportTrace() *trace.Trace {
	var recs []trace.Record
	for t := 0; t < 4; t++ {
		for i := 0; i < 64; i++ {
			recs = append(recs, trace.Record{
				Thread: uint16(t),
				Op:     trace.Load,
				Addr:   uint64(i*128 + t*1<<20),
			})
		}
	}
	return &trace.Trace{Name: "export", Threads: 4, Records: recs}
}

func TestResultsMarshalJSON(t *testing.T) {
	sys, err := newSystem(config.Default(), exportTrace())
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// Stable top-level names the downstream tooling keys on.
	for _, field := range []string{"Config", "Cycles", "L2", "WBHT", "Snarf", "FillLatency", "Derived"} {
		if _, ok := decoded[field]; !ok {
			t.Fatalf("export missing field %q:\n%s", field, data)
		}
	}
	if got := decoded["Cycles"].(float64); uint64(got) != res.Cycles {
		t.Fatalf("Cycles = %v, want %d", got, res.Cycles)
	}
	derived := decoded["Derived"].(map[string]any)
	if got := derived["L2HitRate"].(float64); got != res.L2HitRate() {
		t.Fatalf("Derived.L2HitRate = %v, want %v", got, res.L2HitRate())
	}
	hist := decoded["FillLatency"].(map[string]any)
	if uint64(hist["Count"].(float64)) != res.FillLatency.Count() {
		t.Fatalf("FillLatency.Count = %v, want %d", hist["Count"], res.FillLatency.Count())
	}
}

// TestResultsMarshalDeterministic: identical runs export identical
// bytes — the property the sweep determinism guarantee rests on.
func TestResultsMarshalDeterministic(t *testing.T) {
	marshal := func() []byte {
		sys, err := newSystem(config.Default(), exportTrace())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(sys.Run())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := marshal(), marshal(); !bytes.Equal(a, b) {
		t.Fatal("identical runs exported different bytes")
	}
}
