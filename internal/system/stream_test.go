package system

import (
	"encoding/json"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// marshalResults reduces a run to its full observable byte stream.
func marshalResults(t *testing.T, s *System) []byte {
	t.Helper()
	b, err := json.Marshal(s.Run())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamMatchesMemory: replaying a capture from the sharded store
// on disk (chunked per-thread iterators, bounded memory) must be
// bit-identical to replaying the same trace from memory, across
// mechanisms. The 128-record batches put many chunk boundaries in every
// thread's stream; the in-memory source serves each thread whole.
func TestStreamMatchesMemory(t *testing.T) {
	for _, wl := range []string{"tp", "trade2"} {
		p, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		p.RefsPerThread = 400
		tr, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := trace.WriteSharded(dir, tr, trace.ShardOptions{Shards: 3, BatchRecords: 128}); err != nil {
			t.Fatal(err)
		}
		for _, mech := range []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined} {
			cfg := config.Default().WithMechanism(mech)

			mem, err := newSystem(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalResults(t, mem)

			sh, err := trace.OpenSharded(dir)
			if err != nil {
				t.Fatal(err)
			}
			str, err := NewStream(cfg, sh)
			if err != nil {
				t.Fatal(err)
			}
			got := marshalResults(t, str)

			if string(want) != string(got) {
				t.Fatalf("%s/%s: sharded replay diverged from in-memory replay", wl, mech)
			}
			// Bounded memory held during the replay itself.
			if max := sh.MaxBufferedRecords(); max == 0 || max > int64(tr.Threads)*128 {
				t.Fatalf("%s: MaxBufferedRecords = %d, want in (0, %d]",
					wl, max, tr.Threads*128)
			}
			sh.Close()
		}
	}
}

// threadsSource is a source reporting a chosen thread count.
type threadsSource struct {
	trace.Source
	threads int
}

func (s threadsSource) Threads() int { return s.threads }

// TestNewStreamValidation covers the source-shape errors.
func TestNewStreamValidation(t *testing.T) {
	cfg := config.Default()
	over := &trace.Trace{Name: "over", Threads: cfg.Threads() + 1}
	for i := 0; i <= cfg.Threads(); i++ {
		over.Records = append(over.Records, trace.Record{Thread: uint16(i), Op: trace.Load, Addr: 0x100})
	}
	src, err := trace.NewMemSource(over)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStream(cfg, src); err == nil {
		t.Fatal("source with more threads than the machine accepted")
	}
	if _, err := NewStream(cfg, threadsSource{Source: src, threads: 0}); err == nil {
		t.Fatal("zero-thread source accepted")
	}
}
