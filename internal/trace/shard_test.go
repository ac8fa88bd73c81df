package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// synth builds a deterministic multi-thread trace with uneven per-thread
// lengths and full-range addresses, enough records to span many batches.
func synth(name string, threads, refsPerThread int) *Trace {
	rng := rand.New(rand.NewSource(42))
	t := &Trace{Name: name, Threads: threads}
	for tid := 0; tid < threads; tid++ {
		n := refsPerThread + tid*7 // uneven thread lengths
		addr := rng.Uint64()
		for i := 0; i < n; i++ {
			// Mix local strides with occasional far jumps (including
			// wrap-around deltas) to exercise the zigzag path.
			if rng.Intn(50) == 0 {
				addr = rng.Uint64()
			} else {
				addr += uint64(rng.Intn(4)) * 128
			}
			t.Records = append(t.Records, Record{
				Thread: uint16(tid),
				Op:     Op(rng.Intn(int(numOps))),
				Addr:   addr,
				Gap:    uint32(rng.Intn(100)),
			})
		}
	}
	return t
}

// grouped returns t with its records grouped by thread in ascending
// thread order, each thread's in its own order: the order ReadAll
// yields.
func grouped(t *Trace) *Trace {
	g := &Trace{Name: t.Name, Threads: t.Threads}
	for _, recs := range t.PerThread() {
		g.Records = append(g.Records, recs...)
	}
	return g
}

func writeShardedT(t *testing.T, tr *Trace, opt ShardOptions) (string, *Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "capture.cmps")
	man, err := WriteSharded(dir, tr, opt)
	if err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	return dir, man
}

func TestShardedRoundTrip(t *testing.T) {
	orig := synth("round", 8, 1000)
	dir, man := writeShardedT(t, orig, ShardOptions{Shards: 3, BatchRecords: 128})
	if man.Records != int64(len(orig.Records)) || man.Threads != orig.Threads {
		t.Fatalf("manifest shape %d/%d, want %d/%d",
			man.Records, man.Threads, len(orig.Records), orig.Threads)
	}
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer sh.Close()
	if err := sh.Verify(); err != nil {
		t.Fatalf("Verify on a fresh store: %v", err)
	}
	got, err := sh.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	// ReadAll groups by thread; compare against the thread-grouped
	// original.
	if want := grouped(orig); !equal(want, got) {
		t.Fatalf("sharded round trip mismatch: %d vs %d records", len(want.Records), len(got.Records))
	}
	// The streaming summary must agree with the in-memory one.
	ss, err := SummarizeSource(sh, 128)
	if err != nil {
		t.Fatal(err)
	}
	ms := orig.Summarize(128)
	if ss.Records != ms.Records || ss.Loads != ms.Loads || ss.Stores != ms.Stores ||
		ss.Ifetches != ms.Ifetches || ss.DistinctLines != ms.DistinctLines || ss.MeanGap != ms.MeanGap {
		t.Fatalf("streaming summary %+v != in-memory %+v", ss, ms)
	}
}

// Property: a sharded round trip preserves arbitrary traces: any of 256
// threads, any address, gap and name, records interleaved across
// threads and split over three shards of 7-record batches.
func TestShardedRoundTripProperty(t *testing.T) {
	root := t.TempDir()
	captures := 0
	f := func(recs []struct {
		Thread uint8
		Op     uint8
		Addr   uint64
		Gap    uint32
	}, name string) bool {
		tr := &Trace{Name: name, Threads: 256}
		for _, r := range recs {
			tr.Records = append(tr.Records, Record{
				Thread: uint16(r.Thread),
				Op:     Op(r.Op % 3),
				Addr:   r.Addr,
				Gap:    r.Gap,
			})
		}
		captures++
		dir := filepath.Join(root, strconv.Itoa(captures))
		if _, err := WriteSharded(dir, tr, ShardOptions{Shards: 3, BatchRecords: 7}); err != nil {
			t.Log(err)
			return false
		}
		sh, err := OpenSharded(dir)
		if err != nil {
			t.Log(err)
			return false
		}
		defer sh.Close()
		got, err := sh.ReadAll()
		if err != nil {
			t.Log(err)
			return false
		}
		return equal(grouped(tr), got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedPerThreadCounts(t *testing.T) {
	orig := synth("counts", 5, 200)
	dir, _ := writeShardedT(t, orig, ShardOptions{Shards: 2, BatchRecords: 64})
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	per := orig.PerThread()
	for tid := 0; tid < orig.Threads; tid++ {
		if got, want := sh.ThreadRecords(tid), int64(len(per[tid])); got != want {
			t.Fatalf("thread %d: ThreadRecords = %d, want %d", tid, got, want)
		}
	}
	if sh.ThreadRecords(-1) != 0 || sh.ThreadRecords(999) != 0 {
		t.Fatal("out-of-range ThreadRecords should be 0")
	}
	if chunk, err := sh.Stream(999).NextChunk(); chunk != nil || err != nil {
		t.Fatal("out-of-range Stream should be empty")
	}
}

// TestShardedBoundedMemory is the acceptance-criterion proof: replaying a
// trace much larger than one batch keeps the resident decoded records at
// threads x batch, not the trace length.
func TestShardedBoundedMemory(t *testing.T) {
	const threads, refs, batch = 8, 4000, 256
	orig := synth("bounded", threads, refs)
	dir, _ := writeShardedT(t, orig, ShardOptions{Shards: 4, BatchRecords: batch})
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Drain all threads round-robin the way replay does: every stream
	// holds at most one decoded batch at a time.
	streams := make([]Stream, threads)
	for tid := range streams {
		streams[tid] = sh.Stream(tid)
	}
	total := int64(0)
	for done := 0; done < threads; {
		done = 0
		for _, st := range streams {
			chunk, err := st.NextChunk()
			if err != nil {
				t.Fatal(err)
			}
			if chunk == nil {
				done++
				continue
			}
			total += int64(len(chunk))
		}
	}
	if total != sh.Records() {
		t.Fatalf("drained %d records, want %d", total, sh.Records())
	}
	bound := int64(threads * batch)
	if max := sh.MaxBufferedRecords(); max == 0 || max > bound {
		t.Fatalf("MaxBufferedRecords = %d, want in (0, %d]", max, bound)
	}
	if max, tot := sh.MaxBufferedRecords(), sh.Records(); max*4 > tot {
		t.Fatalf("high-water %d is not well below the %d-record trace", max, tot)
	}
	if sh.BufferedRecords() != 0 {
		t.Fatalf("BufferedRecords = %d after full drain, want 0", sh.BufferedRecords())
	}
}

// TestShardedConcurrentStreams drains every thread's stream on its own
// goroutine at once, as sharded replay does, so the streams share the
// store's file handles and idle inflaters concurrently; each must still
// decode exactly its thread's records.
func TestShardedConcurrentStreams(t *testing.T) {
	orig := synth("concurrent", 8, 2000)
	dir, _ := writeShardedT(t, orig, ShardOptions{Shards: 3, BatchRecords: 128})
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	want := orig.PerThread()
	var wg sync.WaitGroup
	for tid := 0; tid < orig.Threads; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := sh.Stream(tid)
			var got []Record
			for {
				chunk, err := st.NextChunk()
				if err != nil {
					t.Error(err)
					return
				}
				if chunk == nil {
					break
				}
				got = append(got, chunk...)
			}
			if !slices.Equal(got, want[tid]) {
				t.Errorf("thread %d: decoded %d records that differ from its %d", tid, len(got), len(want[tid]))
			}
		}()
	}
	wg.Wait()
}

func TestShardedWriterDeterministic(t *testing.T) {
	orig := synth("det", 6, 500)
	_, man1 := writeShardedT(t, orig, ShardOptions{Shards: 3})
	_, man2 := writeShardedT(t, orig, ShardOptions{Shards: 3})
	if man1.ContentHash() != man2.ContentHash() {
		t.Fatal("identical captures produced different content hashes")
	}
}

// TestShardedContentHashSeparates is the cache-identity acceptance
// criterion: two captures differing in a single record must never share a
// content hash, and FileRefs must be path-independent.
func TestShardedContentHashSeparates(t *testing.T) {
	a := synth("same-name", 4, 300)
	b := synth("same-name", 4, 300)
	b.Records[len(b.Records)/2].Addr ^= 0x40 // one-line perturbation
	dirA, manA := writeShardedT(t, a, ShardOptions{})
	dirB, manB := writeShardedT(t, b, ShardOptions{})
	if manA.ContentHash() == manB.ContentHash() {
		t.Fatal("content hash did not separate two traces differing in one record")
	}
	refA, err := Describe(dirA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := Describe(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if refA == refB {
		t.Fatal("Describe did not separate differing captures")
	}
	// Same content at a different path must resolve to the same identity.
	dirA2, _ := writeShardedT(t, a, ShardOptions{})
	refA2, err := Describe(dirA2)
	if err != nil {
		t.Fatal(err)
	}
	if refA != refA2 {
		t.Fatalf("Describe is path-dependent: %+v vs %+v", refA, refA2)
	}
}

// TestDescribeRejectsNonDirectory: a plain file, a missing path and an
// empty directory are not captures. Describe and OpenSharded reject
// each with an error that names the path.
func TestDescribeRejectsNonDirectory(t *testing.T) {
	root := t.TempDir()
	file := filepath.Join(root, "plain.cmps")
	if err := os.WriteFile(file, []byte(shardMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(root, "empty.cmps")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{file, filepath.Join(root, "missing.cmps"), empty} {
		if ref, err := Describe(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Describe(%s) = %+v, %v; want an error naming the path", path, ref, err)
		}
		sh, err := OpenSharded(path)
		if err == nil {
			sh.Close()
		}
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("OpenSharded(%s): err = %v, want an error naming the path", path, err)
		}
	}
	want := "trace: " + file + " is not a sharded trace directory"
	if _, err := Describe(file); err == nil || err.Error() != want {
		t.Fatalf("Describe(plain file): err = %v, want %q", err, want)
	}
}

// TestWriteShardedRejectsInvalidTrace: the writer refuses what Validate
// refuses, so no capture on disk holds a record replay would reject.
// A name that is not UTF-8 is among them: the JSON manifest would
// replace its bad bytes while each shard header keeps them, so the
// capture could never open. A name that is UTF-8 but not ASCII
// round-trips.
func TestWriteShardedRejectsInvalidTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
		want string
	}{
		{"thread out of range", &Trace{Threads: 2, Records: []Record{{Thread: 200, Op: Load}}}, "thread 200 out of range"},
		{"invalid op", &Trace{Threads: 1, Records: []Record{{Op: 7}}}, "invalid op 7"},
		{"name not UTF-8", &Trace{Name: "bad\xffname", Threads: 1, Records: []Record{{Op: Load, Addr: 0x80}}}, "not valid UTF-8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "bad.cmps")
			if _, err := WriteSharded(dir, tc.tr, ShardOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("WriteSharded: err = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	good := &Trace{Name: "café ☕", Threads: 1, Records: []Record{{Op: Load, Addr: 0x80}}}
	dir, _ := writeShardedT(t, good, ShardOptions{})
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.Name() != good.Name {
		t.Fatalf("Name() = %q, want %q", sh.Name(), good.Name)
	}
}

// TestShardedCompression guards the per-batch address deltas: a
// sequential trace must shrink to well under a byte per record.
func TestShardedCompression(t *testing.T) {
	const n = 10000
	tr := &Trace{Name: "seq", Threads: 1}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, Record{Op: Load, Addr: uint64(i) * 128, Gap: 1})
	}
	dir, _ := writeShardedT(t, tr, ShardOptions{Shards: 1})
	fi, err := os.Stat(filepath.Join(dir, ShardFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if perRec := float64(fi.Size()) / n; perRec > 1 {
		t.Fatalf("%.2f bytes/record, want <= 1 for a sequential trace", perRec)
	}
}

func TestOpenShardedRejectsCorruption(t *testing.T) {
	orig := synth("corrupt", 4, 400)
	newStore := func(t *testing.T) string {
		dir, _ := writeShardedT(t, orig, ShardOptions{Shards: 2, BatchRecords: 64})
		return dir
	}
	shardPath := func(dir string) string { return filepath.Join(dir, ShardFileName(0)) }

	t.Run("truncated shard", func(t *testing.T) {
		dir := newStore(t)
		p := shardPath(dir)
		b, _ := os.ReadFile(p)
		if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("truncated shard accepted")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		dir := newStore(t)
		p := shardPath(dir)
		f, _ := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
		f.WriteString("extra")
		f.Close()
		if _, err := OpenSharded(dir); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing garbage err = %v, want trailing-data rejection", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		dir := newStore(t)
		p := shardPath(dir)
		b, _ := os.ReadFile(p)
		copy(b, "NOPE")
		os.WriteFile(p, b, 0o644)
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("payload flip caught by Verify", func(t *testing.T) {
		dir := newStore(t)
		p := shardPath(dir)
		b, _ := os.ReadFile(p)
		b[len(b)-3] ^= 0xff // inside the last payload: framing still scans
		os.WriteFile(p, b, 0o644)
		sh, err := OpenSharded(dir)
		if err != nil {
			// Also acceptable: the flip broke framing itself.
			return
		}
		defer sh.Close()
		if err := sh.Verify(); err == nil {
			t.Fatal("Verify missed a payload bit flip")
		}
	})
	t.Run("manifest record count mismatch", func(t *testing.T) {
		dir := newStore(t)
		mp := filepath.Join(dir, ManifestName)
		b, _ := os.ReadFile(mp)
		man, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := strings.Replace(string(b),
			`"records": `+strconv.FormatInt(man.Records, 10),
			`"records": `+strconv.FormatInt(man.Records+1, 10), 1)
		os.WriteFile(mp, []byte(s), 0o644)
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("record-count mismatch accepted")
		}
	})
	t.Run("bad manifest format", func(t *testing.T) {
		dir := newStore(t)
		mp := filepath.Join(dir, ManifestName)
		b, _ := os.ReadFile(mp)
		os.WriteFile(mp, []byte(strings.Replace(string(b), ManifestFormat, "cmps/v999", 1)), 0o644)
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("unknown manifest format accepted")
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir := newStore(t)
		os.Remove(shardPath(dir))
		if _, err := OpenSharded(dir); err == nil {
			t.Fatal("missing shard file accepted")
		}
	})
}

// craftedHeader returns a shard file that starts with the magic and
// carries vs as uvarints.
func craftedHeader(vs ...uint64) []byte {
	b := []byte(shardMagic)
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// openWithShard opens a one-shard, one-thread capture whose shard file
// is replaced by shard, and returns OpenSharded's error.
func openWithShard(t *testing.T, shard []byte) error {
	t.Helper()
	dir, _ := writeShardedT(t, synth("crafted", 1, 3), ShardOptions{Shards: 1})
	if err := os.WriteFile(filepath.Join(dir, ShardFileName(0)), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	sh, err := OpenSharded(dir)
	if err == nil {
		sh.Close()
	}
	return err
}

// TestReadBinaryHugeCountHeader is the OOM regression test for the
// shard reader: a crafted header claiming 2^60 batches, a 2^60-record
// batch or a 2^40-byte payload fails at open on its own bound instead
// of reserving memory for it.
func TestReadBinaryHugeCountHeader(t *testing.T) {
	named := func(vs ...uint64) []byte {
		b := append(craftedHeader(shardVersion, uint64(len("crafted"))), "crafted"...)
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		shard []byte
		want  string
	}{
		// threads, shard, shards, batches, then per batch: thread,
		// count, clen.
		{"batch count", named(1, 0, 1, 1<<60), "implausible batch count"},
		{"batch record count", named(1, 0, 1, 1, 0, 1<<60), "implausible record count"},
		{"payload length", named(1, 0, 1, 1, 0, 3, 1<<40), "implausible payload length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := openWithShard(t, tc.shard); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenSharded: err = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestReadBinaryHugeNameLength guards the shard header's name-length
// cap the same way.
func TestReadBinaryHugeNameLength(t *testing.T) {
	if err := openWithShard(t, craftedHeader(shardVersion, 1<<40)); err == nil ||
		!strings.Contains(err.Error(), "implausible name length") {
		t.Fatalf("OpenSharded: err = %v, want implausible-name-length rejection", err)
	}
}

// craftShard replaces dir's shard file with one whose framing declares
// one batch of count records for thread 0 per payload and carries each
// payload as that batch's compressed bytes, so the framing scans cleanly
// whatever the payloads hold. dir must hold a 1-shard, 1-thread capture
// of count*len(payloads) records.
func craftShard(t *testing.T, dir string, count int, payloads ...[]byte) {
	t.Helper()
	var b []byte
	b = append(b, shardMagic...)
	b = binary.AppendUvarint(b, shardVersion)
	b = binary.AppendUvarint(b, uint64(len("crafted")))
	b = append(b, "crafted"...)
	for _, v := range []uint64{1, 0, 1, uint64(len(payloads))} {
		b = binary.AppendUvarint(b, v) // threads, shard, shards, batches
	}
	for _, p := range payloads {
		for _, v := range []uint64{0, uint64(count), uint64(len(p))} {
			b = binary.AppendUvarint(b, v) // thread, count, clen
		}
		b = append(b, p...)
	}
	if err := os.WriteFile(filepath.Join(dir, ShardFileName(0)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// deflate compresses raw the way WriteSharded compresses a batch.
func deflate(t *testing.T, raw []byte) []byte { return deflateLevel(t, raw, flate.BestSpeed) }

func deflateLevel(t *testing.T, raw []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedDecodeAllocationFree is the decode hot-path contract:
// after a stream's first batch has sized its buffers, further batches
// allocate nothing — they reuse those buffers and the store's idle
// inflater — so draining a 64-batch stream allocates exactly as often as
// draining a 4-batch one. The batches are
// stored (uncompressed) DEFLATE blocks, which isolates the stream from
// compress/flate's Huffman decoder: that allocates link tables for every
// dynamic block whose codes run past 9 bits, which reusing the
// decompressor cannot avoid.
func TestShardedDecodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const batch = 256
	drainAllocs := func(batches int) float64 {
		tr := synth("crafted", 1, batches*batch)
		dir, _ := writeShardedT(t, tr, ShardOptions{Shards: 1, BatchRecords: batch})
		payloads := make([][]byte, batches)
		for i := range payloads {
			var raw []byte
			prev := uint64(0)
			for _, r := range tr.Records[i*batch : (i+1)*batch] {
				raw = binary.AppendUvarint(raw, uint64(r.Op))
				raw = binary.AppendUvarint(raw, zigzag(int64(r.Addr)-int64(prev)))
				raw = binary.AppendUvarint(raw, uint64(r.Gap))
				prev = r.Addr
			}
			payloads[i] = deflateLevel(t, raw, flate.NoCompression)
		}
		craftShard(t, dir, batch, payloads...)
		sh, err := OpenSharded(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		return testing.AllocsPerRun(10, func() {
			st := sh.Stream(0)
			for i := 0; ; i++ {
				chunk, err := st.NextChunk()
				if err != nil {
					t.Fatal(err)
				}
				if chunk == nil {
					if i != batches {
						t.Fatalf("drained %d batches, want %d", i, batches)
					}
					return
				}
				if chunk[batch-1] != tr.Records[(i+1)*batch-1] {
					t.Fatalf("batch %d decoded %+v, want %+v", i, chunk[batch-1], tr.Records[(i+1)*batch-1])
				}
			}
		})
	}
	if few, many := drainAllocs(4), drainAllocs(64); few != many {
		t.Fatalf("draining 4 batches allocates %.0f times, 64 batches %.0f: batches after the first allocate", few, many)
	}
}

// TestShardedNextChunkRejectsCraftedPayloads: a batch whose framing is
// sound but whose payload decodes to something no writer produces must
// fail NextChunk with the batch named, never yield records.
func TestShardedNextChunkRejectsCraftedPayloads(t *testing.T) {
	const count = 3
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	good := uv(uint64(Load), zigzag(4096), 7)
	two := append(append([]byte(nil), good...), good...)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	overlong := append(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64), 0x01)
	cases := []struct {
		name    string
		payload []byte
	}{
		{"invalid op", deflate(t, join(two, uv(uint64(numOps), 0, 0)))},
		{"gap above uint32", deflate(t, join(two, uv(0, 0, 1<<32)))},
		{"truncated varint", deflate(t, join(two, uv(0, 0), []byte{0x80}))},
		{"overlong varint", deflate(t, join(two, uv(0), overlong, uv(0)))},
		{"too few records", deflate(t, two)},
		{"payload longer than its record count", deflate(t, join(two, good, good))},
		{"one stray byte past the records", deflate(t, join(two, good, []byte{0}))},
		{"not a deflate stream", []byte{0xff, 0xff, 0xff, 0xff}},
		{"truncated deflate stream", deflate(t, join(two, good))[:4]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := writeShardedT(t, synth("crafted", 1, count), ShardOptions{Shards: 1, BatchRecords: count})
			craftShard(t, dir, count, tc.payload)
			sh, err := OpenSharded(dir)
			if err != nil {
				t.Fatalf("framing rejected at open: %v", err)
			}
			defer sh.Close()
			chunk, err := sh.Stream(0).NextChunk()
			if err == nil {
				t.Fatalf("NextChunk accepted the payload: %d records", len(chunk))
			}
			if !strings.Contains(err.Error(), "thread 0 batch 0") {
				t.Fatalf("error %q does not name the batch", err)
			}
		})
	}
	// The same framing around a well-formed payload decodes.
	dir, _ := writeShardedT(t, synth("crafted", 1, count), ShardOptions{Shards: 1, BatchRecords: count})
	craftShard(t, dir, count, deflate(t, join(two, good)))
	sh, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	chunk, err := sh.Stream(0).NextChunk()
	if err != nil || len(chunk) != count || chunk[2] != (Record{Op: Load, Addr: 3 * 4096, Gap: 7}) {
		t.Fatalf("well-formed crafted batch: %v, %+v", err, chunk)
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	for shards := 1; shards <= 8; shards++ {
		for tid := 0; tid < 1000; tid++ {
			s := shardOf(tid, shards)
			if s < 0 || s >= shards {
				t.Fatalf("shardOf(%d, %d) = %d out of range", tid, shards, s)
			}
			if s != shardOf(tid, shards) {
				t.Fatal("shardOf not deterministic")
			}
		}
	}
}

func TestMemSourceMatchesTrace(t *testing.T) {
	tr := sample()
	src, err := NewMemSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != tr.Name || src.Threads() != tr.Threads || src.Records() != int64(len(tr.Records)) {
		t.Fatalf("MemSource shape mismatch")
	}
	per := tr.PerThread()
	for tid := 0; tid < tr.Threads; tid++ {
		st := src.Stream(tid)
		chunk, err := st.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if len(per[tid]) == 0 {
			if chunk != nil {
				t.Fatalf("thread %d: empty stream yielded a chunk", tid)
			}
			continue
		}
		if len(chunk) != len(per[tid]) {
			t.Fatalf("thread %d: chunk %d records, want %d", tid, len(chunk), len(per[tid]))
		}
		if next, err := st.NextChunk(); next != nil || err != nil {
			t.Fatalf("thread %d: stream did not end after one chunk", tid)
		}
	}
}

// TestNewMemSourceRejectsMalformed: the in-memory source is the only
// way an in-memory trace enters a run, so it refuses what Validate
// refuses instead of panicking on the split or replaying a bad record.
func TestNewMemSourceRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
		want string
	}{
		{"thread out of range", &Trace{Threads: 2, Records: []Record{{Thread: 5, Op: Load}}}, "thread 5 out of range"},
		{"invalid op", &Trace{Threads: 1, Records: []Record{{Op: 7}}}, "invalid op 7"},
		{"zero threads", &Trace{Threads: 0}, "Threads = 0"},
		{"name not UTF-8", &Trace{Name: "bad\xffname", Threads: 1}, "not valid UTF-8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := NewMemSource(tc.tr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewMemSource = %v, %v; want an error containing %q", src, err, tc.want)
			}
		})
	}
}

// BenchmarkShardedDecode is the trace layer's decode benchmark: each
// iteration drains every thread of a 4-shard capture (16 threads of
// about 20,000 records, default 4096-record batches) through fresh
// streams, as one replay does. ns/record is the decode cost per record.
func BenchmarkShardedDecode(b *testing.B) {
	tr := synth("decode", 16, 20000)
	dir := filepath.Join(b.TempDir(), "capture.cmps")
	if _, err := WriteSharded(dir, tr, ShardOptions{Shards: 4}); err != nil {
		b.Fatal(err)
	}
	sh, err := OpenSharded(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < sh.Threads(); tid++ {
			st := sh.Stream(tid)
			for {
				chunk, err := st.NextChunk()
				if err != nil {
					b.Fatal(err)
				}
				if chunk == nil {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*sh.Records()), "ns/record")
}
