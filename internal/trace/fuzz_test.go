package trace

import (
	"os"
	"path/filepath"
	"testing"
)

// TestBinaryExtremeDeltas round-trips addresses whose per-thread deltas
// span the full signed 64-bit range (0 -> MaxUint64 -> 0), the zigzag
// edge cases. Thread 1's record sits between thread 0's, so each
// thread's deltas must run from its own previous address.
func TestBinaryExtremeDeltas(t *testing.T) {
	tr := &Trace{Name: "extreme", Threads: 2, Records: []Record{
		{Thread: 0, Op: Load, Addr: 0},
		{Thread: 0, Op: Store, Addr: ^uint64(0)},      // delta +MaxUint64 (wraps)
		{Thread: 0, Op: Load, Addr: 0},                // delta -MaxUint64
		{Thread: 0, Op: Load, Addr: 1 << 63},          // delta MinInt64
		{Thread: 1, Op: Ifetch, Addr: ^uint64(0) - 1}, // independent per-thread state
		{Thread: 0, Op: Load, Addr: (1 << 63) - 1},
	}}
	dir, _ := writeShardedT(t, tr, ShardOptions{Shards: 1})
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	got, err := sh.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := grouped(tr); !equal(want, got) {
		t.Fatalf("extreme-delta round trip mismatch:\nwant %+v\ngot  %+v", want.Records, got.Records)
	}
}

// TestShardedExtremeDeltas proves the sharded codec handles the same
// edge-case addresses across a batch boundary (deltas reset per batch,
// so the first record of each batch carries an absolute address
// zigzagged).
func TestShardedExtremeDeltas(t *testing.T) {
	tr := &Trace{Name: "extreme", Threads: 1, Records: []Record{
		{Op: Load, Addr: ^uint64(0)},
		{Op: Store, Addr: 0},
		{Op: Load, Addr: 1 << 63}, // first record of batch 2 with BatchRecords=2
		{Op: Load, Addr: 5},
	}}
	dir, _ := writeShardedT(t, tr, ShardOptions{Shards: 1, BatchRecords: 2})
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	got, err := sh.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !equal(tr, got) {
		t.Fatalf("sharded extreme-delta round trip mismatch:\norig %+v\ngot  %+v", tr.Records, got.Records)
	}
}

// FuzzShardedReplay feeds arbitrary bytes to the sharded reader as the
// only shard of a one-shard capture whose manifest stays as written.
// The reader must reject the bytes or replay them; a capture it
// accepts must drain through ReadAll to a valid trace of exactly
// Records() records, never panic and never allocate past the
// manifest's bounds.
func FuzzShardedReplay(f *testing.F) {
	seed := &Trace{Name: "seed", Threads: 2, Records: []Record{
		{Thread: 0, Op: Load, Addr: 0x1000, Gap: 3},
		{Thread: 1, Op: Store, Addr: ^uint64(0), Gap: 0},
		{Thread: 0, Op: Ifetch, Addr: 0x1080, Gap: 1 << 31},
	}}
	dir := filepath.Join(f.TempDir(), "seed.cmps")
	if _, err := WriteSharded(dir, seed, ShardOptions{Shards: 1, BatchRecords: 1}); err != nil {
		f.Fatal(err)
	}
	shard := filepath.Join(dir, ShardFileName(0))
	written, err := os.ReadFile(shard)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add(written[:len(written)-1])
	f.Add(append(append([]byte(nil), written...), 0))
	f.Add([]byte(shardMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(shard, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sh, err := OpenSharded(dir)
		if err != nil {
			return
		}
		defer sh.Close()
		tr, err := sh.ReadAll()
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid trace: %v", err)
		}
		if got := int64(len(tr.Records)); got != sh.Records() {
			t.Fatalf("drained %d records, capture declares %d", got, sh.Records())
		}
	})
}
