package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Sharded trace store (DESIGN.md §17). A capture is split across
// per-thread-hash shard files so independent shards can be written,
// verified and read in parallel, and each shard is a sequence of
// per-thread batches so replay streams one batch per thread at a time
// instead of materializing the trace:
//
//	shard-NNN.cmps:
//	  magic   "CMPS"          4 bytes
//	  version uvarint         currently 1
//	  name    uvarint length + bytes
//	  threads uvarint         total trace thread count
//	  shard   uvarint         this file's shard index
//	  shards  uvarint         total shard count
//	  batches uvarint         batch count in this file, then per batch:
//	    thread uvarint
//	    count  uvarint        records in the batch (> 0)
//	    clen   uvarint        compressed payload length
//	    payload                clen bytes, DEFLATE; per record:
//	      op    uvarint
//	      delta uvarint       zigzagged address delta, reset per batch
//	      gap   uvarint
//
// Address deltas restart from zero at every batch boundary (the first
// record carries its absolute address zigzagged), so a batch decodes
// with no state from earlier batches — the property that lets the
// reader fetch any thread's next batch with one pread and one inflate.
// Batches within a file are grouped by thread in ascending thread
// order.
//
// manifest.json names the shard files and carries per-shard record
// counts and SHA-256 content hashes; the hash of the manifest itself
// (Manifest.ContentHash) is the identity of the whole capture, which is
// what flows into sweep cache keys.

const (
	shardMagic   = "CMPS"
	shardVersion = 1

	// ManifestName is the manifest's filename inside a sharded trace
	// directory.
	ManifestName = "manifest.json"

	// ManifestFormat identifies the manifest schema.
	ManifestFormat = "cmps/v1"

	// DefaultShards is the shard-file count when ShardOptions leaves it
	// zero.
	DefaultShards = 4

	// DefaultBatchRecords is the per-batch record count when
	// ShardOptions leaves it zero. Batch size bounds the reader's
	// per-thread resident memory: replay holds one decoded batch per
	// thread.
	DefaultBatchRecords = 4096

	// maxPrealloc caps how many records any header-declared count may
	// preallocate. A corrupt manifest can claim 2^60 records; trusting
	// that count would OOM the process before a single record is read,
	// so readers reserve at most this many up front and grow by append
	// as real data arrives. It also caps one batch's record count.
	maxPrealloc = 1 << 20

	// maxThreads bounds the thread count a manifest may declare. Thread
	// IDs are uint16, so nothing above 1<<16 can ever be referenced.
	maxThreads = 1 << 16
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ThreadCount is one thread's record count within a shard.
type ThreadCount struct {
	Thread  int   `json:"thread"`
	Records int64 `json:"records"`
}

// ShardInfo describes one shard file in the manifest.
type ShardInfo struct {
	File    string        `json:"file"`
	Records int64         `json:"records"`
	Threads []ThreadCount `json:"threads"`
	SHA256  string        `json:"sha256"`
}

// Manifest is the self-describing index of a sharded trace directory.
type Manifest struct {
	Format       string      `json:"format"`
	Name         string      `json:"name"`
	Threads      int         `json:"threads"`
	Records      int64       `json:"records"`
	BatchRecords int         `json:"batch_records"`
	Shards       []ShardInfo `json:"shards"`
}

// ContentHash returns the capture's content identity: the SHA-256 of
// the manifest's canonical JSON encoding. Because the manifest embeds
// every shard's own SHA-256, two captures share a ContentHash iff every
// byte of every shard matches.
func (m *Manifest) ContentHash() string {
	b, err := json.Marshal(m)
	if err != nil {
		// Manifest contains only strings, ints and slices; Marshal
		// cannot fail on it.
		panic(fmt.Sprintf("trace: manifest marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ShardOptions configures WriteSharded. Zero values select defaults.
type ShardOptions struct {
	// Shards is the shard-file count (default DefaultShards).
	Shards int
	// BatchRecords is the record count per compressed batch (default
	// DefaultBatchRecords).
	BatchRecords int
}

// shardOf assigns thread tid to a shard by FNV-1a over the two thread-ID
// bytes. Hash assignment keeps any fixed thread's data in one file
// regardless of how many other threads exist, so shard membership is
// stable as captures grow.
func shardOf(tid, shards int) int {
	h := uint32(2166136261)
	h = (h ^ uint32(tid&0xff)) * 16777619
	h = (h ^ uint32(tid>>8&0xff)) * 16777619
	return int(h % uint32(shards))
}

// ShardFileName returns the canonical shard filename for index i.
func ShardFileName(i int) string { return fmt.Sprintf("shard-%03d.cmps", i) }

// WriteSharded captures t into dir as a sharded trace store and returns
// the manifest it wrote. dir is created if needed; an existing
// manifest.json or shard file is overwritten.
func WriteSharded(dir string, t *Trace, opt ShardOptions) (*Manifest, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	batch := opt.BatchRecords
	if batch <= 0 {
		batch = DefaultBatchRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	perThread := t.PerThread()
	man := &Manifest{
		Format:       ManifestFormat,
		Name:         t.Name,
		Threads:      t.Threads,
		Records:      int64(len(t.Records)),
		BatchRecords: batch,
	}
	for si := 0; si < shards; si++ {
		info, err := writeShardFile(dir, si, shards, t, perThread, batch)
		if err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, *info)
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	mb = append(mb, '\n')
	if err := writeFileSync(filepath.Join(dir, ManifestName), mb); err != nil {
		return nil, err
	}
	return man, nil
}

// writeShardFile writes shard si: the threads hashing to si, batched
// and compressed, with the file's SHA-256 computed as it streams out.
func writeShardFile(dir string, si, shards int, t *Trace, perThread [][]Record, batch int) (*ShardInfo, error) {
	info := &ShardInfo{File: ShardFileName(si)}
	path := filepath.Join(dir, info.File)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	hash := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(f, hash))

	var varbuf [binary.MaxVarintLen64]byte
	putUvarint := func(w io.Writer, v uint64) error {
		n := binary.PutUvarint(varbuf[:], v)
		_, err := w.Write(varbuf[:n])
		return err
	}

	batchCount := 0
	for tid := 0; tid < t.Threads; tid++ {
		if shardOf(tid, shards) != si {
			continue
		}
		n := len(perThread[tid])
		batchCount += (n + batch - 1) / batch
	}
	if _, err := bw.WriteString(shardMagic); err != nil {
		return nil, err
	}
	for _, v := range []uint64{shardVersion, uint64(len(t.Name))} {
		if err := putUvarint(bw, v); err != nil {
			return nil, err
		}
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return nil, err
	}
	for _, v := range []uint64{uint64(t.Threads), uint64(si), uint64(shards), uint64(batchCount)} {
		if err := putUvarint(bw, v); err != nil {
			return nil, err
		}
	}

	var raw, comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	for tid := 0; tid < t.Threads; tid++ {
		if shardOf(tid, shards) != si {
			continue
		}
		recs := perThread[tid]
		if len(recs) > 0 {
			info.Threads = append(info.Threads, ThreadCount{Thread: tid, Records: int64(len(recs))})
			info.Records += int64(len(recs))
		}
		for start := 0; start < len(recs); start += batch {
			end := start + batch
			if end > len(recs) {
				end = len(recs)
			}
			raw.Reset()
			prev := uint64(0) // deltas reset per batch
			for _, r := range recs[start:end] {
				if err := putUvarint(&raw, uint64(r.Op)); err != nil {
					return nil, err
				}
				if err := putUvarint(&raw, zigzag(int64(r.Addr)-int64(prev))); err != nil {
					return nil, err
				}
				prev = r.Addr
				if err := putUvarint(&raw, uint64(r.Gap)); err != nil {
					return nil, err
				}
			}
			comp.Reset()
			fw.Reset(&comp)
			if _, err := fw.Write(raw.Bytes()); err != nil {
				return nil, err
			}
			if err := fw.Close(); err != nil {
				return nil, err
			}
			for _, v := range []uint64{uint64(tid), uint64(end - start), uint64(comp.Len())} {
				if err := putUvarint(bw, v); err != nil {
					return nil, err
				}
			}
			if _, err := bw.Write(comp.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	info.SHA256 = hex.EncodeToString(hash.Sum(nil))
	return info, nil
}

// writeFileSync writes data to path, reporting Close errors (a buffered
// write that hits ENOSPC surfaces at Close).
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchRef locates one compressed batch inside a shard file.
type batchRef struct {
	file  int   // index into Sharded.files
	off   int64 // payload offset
	clen  int64 // payload length
	count int   // records in the batch
}

// Sharded is the streaming reader over a sharded trace directory. Open
// scans every shard's batch headers once (skipping payloads) to build
// per-thread batch indexes; Stream then serves each thread's batches
// with positioned reads (ReadAt), so concurrent per-thread streams
// share the file handles without locks or seek contention.
//
// Memory is bounded by construction: a stream holds exactly one decoded
// batch at a time, so replay of an N-record trace resident-buffers at
// most threads x BatchRecords records regardless of N. The buffered /
// maxBuffered counters prove it at test time.
type Sharded struct {
	dir       string
	man       Manifest
	files     []*os.File
	perThread [][]batchRef
	threadRec []int64

	buffered    atomic.Int64
	maxBuffered atomic.Int64

	// idle holds the inflaters no stream is using. Streams take one per
	// batch and return it, so the store keeps one per stream decoding
	// at once — one in a serial replay — rather than one per stream.
	mu   sync.Mutex
	idle []*inflater
}

// ReadManifest loads and validates dir's manifest. A path that is not
// a directory is rejected before any file is read.
func ReadManifest(dir string) (*Manifest, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("trace: %s is not a sharded trace directory", dir)
	}
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", ManifestName, err)
	}
	if man.Format != ManifestFormat {
		return nil, fmt.Errorf("trace: %s: unsupported format %q", ManifestName, man.Format)
	}
	if man.Threads <= 0 || man.Threads > maxThreads {
		return nil, fmt.Errorf("trace: %s: implausible thread count %d", ManifestName, man.Threads)
	}
	if len(man.Shards) == 0 {
		return nil, fmt.Errorf("trace: %s: no shards", ManifestName)
	}
	return &man, nil
}

// OpenSharded opens dir for streaming replay. It validates every shard
// file's framing against the manifest (header fields, per-thread record
// counts, exact end-of-file after the declared batches) but does not
// hash payloads — use Verify for full content verification.
func OpenSharded(dir string) (*Sharded, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		dir:       dir,
		man:       *man,
		perThread: make([][]batchRef, man.Threads),
		threadRec: make([]int64, man.Threads),
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	var total int64
	for i, info := range man.Shards {
		f, err := os.Open(filepath.Join(dir, info.File))
		if err != nil {
			return nil, err
		}
		s.files = append(s.files, f)
		if err := s.scanShard(i, f, &info); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", info.File, err)
		}
		total += info.Records
	}
	if total != man.Records {
		return nil, fmt.Errorf("trace: manifest claims %d records, shards hold %d", man.Records, total)
	}
	ok = true
	return s, nil
}

// countReader counts bytes consumed from the underlying reader so the
// scan can compute payload offsets through a bufio layer.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanShard walks shard file fi's framing, indexing every batch. The
// scan must account for every byte: a file that ends early, or carries
// data past its declared batches, is rejected here rather than
// surfacing as a mid-replay decode error.
func (s *Sharded) scanShard(fi int, f *os.File, info *ShardInfo) error {
	cr := &countReader{r: f}
	br := bufio.NewReader(cr)
	pos := func() int64 { return cr.n - int64(br.Buffered()) }

	head := make([]byte, len(shardMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	if string(head) != shardMagic {
		return fmt.Errorf("bad magic %q (not a CMPS shard)", head)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("reading version: %w", err)
	}
	if version != shardVersion {
		return fmt.Errorf("unsupported version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return fmt.Errorf("reading name: %w", err)
	}
	if string(name) != s.man.Name {
		return fmt.Errorf("shard name %q does not match manifest %q", name, s.man.Name)
	}
	var hdr [4]uint64 // threads, shard index, shard count, batch count
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(br); err != nil {
			return fmt.Errorf("reading header: %w", err)
		}
	}
	if int(hdr[0]) != s.man.Threads {
		return fmt.Errorf("shard declares %d threads, manifest %d", hdr[0], s.man.Threads)
	}
	if int(hdr[1]) != fi || int(hdr[2]) != len(s.man.Shards) {
		return fmt.Errorf("shard identifies as %d/%d, manifest placed it at %d/%d",
			hdr[1], hdr[2], fi, len(s.man.Shards))
	}
	batches := hdr[3]
	if batches > 1<<40 {
		return fmt.Errorf("implausible batch count %d", batches)
	}
	shardRecs := int64(0)
	perThread := make(map[int]int64)
	prevTid := -1
	for b := uint64(0); b < batches; b++ {
		tid, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("batch %d thread: %w", b, err)
		}
		if tid >= uint64(s.man.Threads) {
			return fmt.Errorf("batch %d thread %d out of range", b, tid)
		}
		if int(tid) < prevTid {
			return fmt.Errorf("batch %d thread %d out of order (after %d)", b, tid, prevTid)
		}
		prevTid = int(tid)
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("batch %d count: %w", b, err)
		}
		if count == 0 || count > maxPrealloc {
			return fmt.Errorf("batch %d implausible record count %d", b, count)
		}
		clen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("batch %d payload length: %w", b, err)
		}
		if clen > 1<<31 {
			return fmt.Errorf("batch %d implausible payload length %d", b, clen)
		}
		off := pos()
		if _, err := br.Discard(int(clen)); err != nil {
			return fmt.Errorf("batch %d payload truncated: %w", b, err)
		}
		s.perThread[tid] = append(s.perThread[tid], batchRef{
			file: fi, off: off, clen: int64(clen), count: int(count),
		})
		s.threadRec[tid] += int64(count)
		perThread[int(tid)] += int64(count)
		shardRecs += int64(count)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("trailing data after %d batches", batches)
	}
	if shardRecs != info.Records {
		return fmt.Errorf("manifest claims %d records, framing holds %d", info.Records, shardRecs)
	}
	if len(perThread) != len(info.Threads) {
		return fmt.Errorf("manifest lists %d threads, framing holds %d", len(info.Threads), len(perThread))
	}
	for _, tc := range info.Threads {
		if perThread[tc.Thread] != tc.Records {
			return fmt.Errorf("thread %d: manifest claims %d records, framing holds %d",
				tc.Thread, tc.Records, perThread[tc.Thread])
		}
	}
	return nil
}

// Close releases the shard file handles. Streams must not be used after
// Close.
func (s *Sharded) Close() error {
	var first error
	for _, f := range s.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	return first
}

// Manifest returns the manifest the store was opened with.
func (s *Sharded) Manifest() Manifest { return s.man }

// Name returns the capture name.
func (s *Sharded) Name() string { return s.man.Name }

// Threads returns the capture thread count.
func (s *Sharded) Threads() int { return s.man.Threads }

// Records returns the total record count.
func (s *Sharded) Records() int64 { return s.man.Records }

// ThreadRecords returns thread tid's record count.
func (s *Sharded) ThreadRecords(tid int) int64 {
	if tid < 0 || tid >= len(s.threadRec) {
		return 0
	}
	return s.threadRec[tid]
}

// BufferedRecords returns the records currently resident in decoded
// stream chunks.
func (s *Sharded) BufferedRecords() int64 { return s.buffered.Load() }

// MaxBufferedRecords returns the high-water mark of resident decoded
// records across all streams — the reader's memory bound, in records.
func (s *Sharded) MaxBufferedRecords() int64 { return s.maxBuffered.Load() }

// Stream returns thread tid's batch stream. Streams for different
// threads are safe to consume concurrently; a single stream is not
// concurrency-safe.
func (s *Sharded) Stream(tid int) Stream {
	if tid < 0 || tid >= len(s.perThread) {
		return &shardStream{s: s}
	}
	return &shardStream{s: s, tid: uint16(tid), refs: s.perThread[tid]}
}

// shardStream decodes one thread's batches on demand. Its buffers are
// reused across chunks (per the Stream contract), so a draining replay
// holds one batch per thread, and a batch after the first allocates
// nothing in the stream.
type shardStream struct {
	s       *Sharded
	tid     uint16
	refs    []batchRef
	next    int
	lastLen int64
	cbuf    []byte   // compressed payload buffer, for the largest batch
	recs    []Record // decode buffer, for the largest batch
}

// inflater inflates one batch payload at a time: a DEFLATE decompressor
// reset through flate.Resetter, and a window the records are decoded
// from with binary.Uvarint.
type inflater struct {
	comp bytes.Reader // reads the payload into fr
	fr   io.ReadCloser

	// win[lo:hi] is inflated payload not yet decoded; eof marks the end
	// of the payload.
	win    [4096]byte
	lo, hi int
	eof    bool
}

// maxRecordBytes is the longest encoding of one record: three varints.
const maxRecordBytes = 3 * binary.MaxVarintLen64

func (st *shardStream) NextChunk() ([]Record, error) {
	st.s.account(-st.lastLen)
	st.lastLen = 0
	if st.next >= len(st.refs) {
		return nil, nil
	}
	if st.next == 0 {
		// Size the buffers once, for the stream's largest batch.
		var clen int64
		var count int
		for _, r := range st.refs {
			clen, count = max(clen, r.clen), max(count, r.count)
		}
		st.cbuf = make([]byte, clen)
		st.recs = make([]Record, count)
	}
	ref := st.refs[st.next]
	st.next++
	buf := st.cbuf[:ref.clen]
	if _, err := st.s.files[ref.file].ReadAt(buf, ref.off); err != nil {
		return nil, st.errorf("%w", err)
	}
	inf := st.s.takeInflater()
	defer st.s.returnInflater(inf)
	if err := inf.reset(buf); err != nil {
		return nil, st.errorf("%w", err)
	}
	recs := st.recs[:ref.count]
	prev := uint64(0)
	for i := range recs {
		if inf.hi-inf.lo < maxRecordBytes && !inf.eof {
			if err := inf.refill(); err != nil {
				return nil, st.errorf("%w", err)
			}
		}
		b := inf.win[inf.lo:inf.hi]
		op, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, st.fieldError(i, "op", n)
		}
		b = b[n:]
		if op >= uint64(numOps) {
			return nil, st.errorf("record %d invalid op %d", i, op)
		}
		deltaRaw, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, st.fieldError(i, "addr", n)
		}
		b = b[n:]
		addr := uint64(int64(prev) + unzigzag(deltaRaw))
		prev = addr
		gap, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, st.fieldError(i, "gap", n)
		}
		b = b[n:]
		if gap > 1<<32-1 {
			return nil, st.errorf("record %d gap %d overflows uint32", i, gap)
		}
		inf.lo = inf.hi - len(b)
		recs[i] = Record{Thread: st.tid, Op: Op(op), Addr: addr, Gap: uint32(gap)}
	}
	if inf.lo == inf.hi && !inf.eof {
		if err := inf.refill(); err != nil {
			return nil, st.errorf("%w", err)
		}
	}
	if inf.lo != inf.hi {
		return nil, st.errorf("payload larger than declared %d records", ref.count)
	}
	st.lastLen = int64(len(recs))
	st.s.account(st.lastLen)
	return recs, nil
}

// takeInflater hands out an idle inflater, or a new one if none is idle.
func (s *Sharded) takeInflater() *inflater {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return new(inflater)
	}
	inf := s.idle[n-1]
	s.idle = s.idle[:n-1]
	return inf
}

// returnInflater makes inf available to the store's streams again.
func (s *Sharded) returnInflater(inf *inflater) {
	s.mu.Lock()
	s.idle = append(s.idle, inf)
	s.mu.Unlock()
}

// reset points the inflater at a new payload.
func (inf *inflater) reset(payload []byte) error {
	inf.comp.Reset(payload)
	inf.lo, inf.hi, inf.eof = 0, 0, false
	if inf.fr == nil {
		inf.fr = flate.NewReader(&inf.comp)
		return nil
	}
	return inf.fr.(flate.Resetter).Reset(&inf.comp, nil)
}

// refill moves the undecoded bytes to the front of the window and
// inflates into the rest until it is full or the payload ends.
func (inf *inflater) refill() error {
	inf.hi = copy(inf.win[:], inf.win[inf.lo:inf.hi])
	inf.lo = 0
	for inf.hi < len(inf.win) {
		n, err := inf.fr.Read(inf.win[inf.hi:])
		inf.hi += n
		if err == io.EOF {
			inf.eof = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errorf reports a decode failure in the stream's current batch.
func (st *shardStream) errorf(format string, args ...any) error {
	return fmt.Errorf("trace: thread %d batch %d: "+format, append([]any{st.tid, st.next - 1}, args...)...)
}

// fieldError reports a record field whose varint binary.Uvarint
// rejected with n: the payload ended inside it (n == 0) or it overflows
// 64 bits (n < 0).
func (st *shardStream) fieldError(i int, field string, n int) error {
	err := io.ErrUnexpectedEOF
	if n < 0 {
		err = errVarintOverflow
	}
	return st.errorf("record %d %s: %w", i, field, err)
}

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// account adjusts the resident-record counter and tracks its high-water
// mark.
func (s *Sharded) account(delta int64) {
	if delta == 0 {
		return
	}
	now := s.buffered.Add(delta)
	for {
		max := s.maxBuffered.Load()
		if now <= max || s.maxBuffered.CompareAndSwap(max, now) {
			return
		}
	}
}

// ReadAll materializes the whole capture as an in-memory Trace, records
// grouped by thread in ascending thread order. Intended for tools and
// tests; replay should stream.
func (s *Sharded) ReadAll() (*Trace, error) {
	t := &Trace{Name: s.man.Name, Threads: s.man.Threads}
	prealloc := s.man.Records
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	t.Records = make([]Record, 0, prealloc)
	for tid := 0; tid < s.man.Threads; tid++ {
		st := s.Stream(tid)
		for {
			chunk, err := st.NextChunk()
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				break
			}
			t.Records = append(t.Records, chunk...)
		}
	}
	return t, nil
}

// Verify re-hashes every shard file and compares against the manifest,
// detecting any post-capture corruption the framing scan cannot see.
func (s *Sharded) Verify() error {
	for i, info := range s.man.Shards {
		h := sha256.New()
		if _, err := io.Copy(h, io.NewSectionReader(s.files[i], 0, 1<<62)); err != nil {
			return fmt.Errorf("trace: %s: %w", info.File, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != info.SHA256 {
			return fmt.Errorf("trace: %s: content hash %s does not match manifest %s", info.File, got, info.SHA256)
		}
	}
	return nil
}

// FileRef identifies a trace input by content, not location: the fields
// that flow into sweep cache keys. Two paths holding byte-identical
// captures produce equal FileRefs; any content difference changes
// SHA256.
type FileRef struct {
	Name    string
	Threads int
	Records int64
	SHA256  string
}

// Describe resolves a sharded trace directory to its content
// identity: the manifest's shape and its ContentHash.
func Describe(dir string) (FileRef, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return FileRef{}, err
	}
	return FileRef{
		Name:    man.Name,
		Threads: man.Threads,
		Records: man.Records,
		SHA256:  man.ContentHash(),
	}, nil
}
