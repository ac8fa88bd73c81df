// Package serve is the simulation-as-a-service layer: a long-running
// HTTP daemon (cmd/cmpserved) that accepts single configurations or
// whole sweep grids, executes them on its own bounded worker pool, each
// run through one shared sweep.Simulator, and memoizes every result in
// a two-level content-addressed cache.
//
// Because the simulator is bit-deterministic — the same (config,
// workload, seed) always produces the identical result bytes — caching
// is *exact* memoization, not approximation: a cache hit is
// indistinguishable from a fresh run except that zero simulation events
// execute. Fittingly for a paper about adaptive L1/L2/L3 hierarchies,
// the server's cache is itself a two-level cache-aside hierarchy: a
// bounded in-memory LRU L1 in front of an unbounded on-disk L2 of
// result-JSON files, with L2 hits promoted into L1 and L1 evictions
// falling back to the (write-through) L2.
package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cmpcache/internal/telemetry"
)

// CacheLevel identifies which level satisfied a lookup.
type CacheLevel string

const (
	// CacheMiss: neither level holds the key.
	CacheMiss CacheLevel = ""
	// CacheL1: served from the in-memory LRU.
	CacheL1 CacheLevel = "l1"
	// CacheL2: served from the on-disk store (and promoted into L1).
	CacheL2 CacheLevel = "l2"
)

// CacheOptions bounds the in-memory L1 and locates the on-disk L2.
type CacheOptions struct {
	// Dir is the L2 root directory; empty disables the disk level.
	Dir string
	// L1Entries bounds the L1 entry count; <= 0 means DefaultL1Entries.
	L1Entries int
	// L1Bytes bounds the summed payload bytes held in L1; <= 0 means
	// DefaultL1Bytes. An entry larger than the bound bypasses L1 and
	// lives only on disk.
	L1Bytes int64
	// Metrics receives the cache's counters. Nil means detached
	// standalone counters (Stats still works; nothing is exported).
	Metrics *CacheMetrics
}

// Default L1 bounds: result JSON runs a few hundred KB with metrics
// attached, so 256 entries / 256 MB holds a comfortable working set of
// recent grids without threatening the heap.
const (
	DefaultL1Entries = 256
	DefaultL1Bytes   = 256 << 20
)

// CacheMetrics are the cache's live counters. When built from a
// registry (NewCacheMetrics) they export on /metrics; /debug/stats
// renders the same instruments via Stats — one source of truth.
type CacheMetrics struct {
	L1Hits         *telemetry.Counter
	L1Misses       *telemetry.Counter
	L2Hits         *telemetry.Counter
	L2Misses       *telemetry.Counter
	Evictions      *telemetry.Counter
	Writes         *telemetry.Counter
	WriteErrors    *telemetry.Counter
	CorruptDropped *telemetry.Counter
	Persisted      *telemetry.Counter
}

// NewCacheMetrics builds the cache counter set on reg; a nil registry
// yields detached (unexported but functional) counters.
func NewCacheMetrics(reg *telemetry.Registry) *CacheMetrics {
	if reg == nil {
		return &CacheMetrics{
			L1Hits: &telemetry.Counter{}, L1Misses: &telemetry.Counter{},
			L2Hits: &telemetry.Counter{}, L2Misses: &telemetry.Counter{},
			Evictions: &telemetry.Counter{}, Writes: &telemetry.Counter{},
			WriteErrors: &telemetry.Counter{}, CorruptDropped: &telemetry.Counter{},
			Persisted: &telemetry.Counter{},
		}
	}
	return &CacheMetrics{
		L1Hits: reg.Counter("cmpserved_result_cache_l1_hits_total",
			"Result-cache lookups served by the in-memory L1 LRU."),
		L1Misses: reg.Counter("cmpserved_result_cache_l1_misses_total",
			"Result-cache lookups that missed L1."),
		L2Hits: reg.Counter("cmpserved_result_cache_l2_hits_total",
			"Result-cache lookups served by the on-disk L2 (promoted into L1)."),
		L2Misses: reg.Counter("cmpserved_result_cache_l2_misses_total",
			"Result-cache lookups that missed both levels."),
		Evictions: reg.Counter("cmpserved_result_cache_evictions_total",
			"L1 LRU evictions."),
		Writes: reg.Counter("cmpserved_result_cache_writes_total",
			"Successful result-cache Put calls."),
		WriteErrors: reg.Counter("cmpserved_result_cache_write_errors_total",
			"Soft L2 write failures (the result stays servable from L1)."),
		CorruptDropped: reg.Counter("cmpserved_result_cache_corrupt_dropped_total",
			"Invalid L2 files deleted and treated as misses."),
		Persisted: reg.Counter("cmpserved_result_cache_persisted_total",
			"L1 entries re-written to L2 by the shutdown Persist sweep."),
	}
}

// CacheStats is the /debug/stats cache payload: a point-in-time reading
// of the CacheMetrics counters plus current L1 occupancy.
type CacheStats struct {
	L1Hits         uint64 `json:"l1_hits"`
	L1Misses       uint64 `json:"l1_misses"`
	L2Hits         uint64 `json:"l2_hits"`
	L2Misses       uint64 `json:"l2_misses"`
	Evictions      uint64 `json:"evictions"`       // L1 LRU evictions
	Writes         uint64 `json:"writes"`          // successful Put calls
	WriteErrors    uint64 `json:"write_errors"`    // L2 write failures (soft)
	CorruptDropped uint64 `json:"corrupt_dropped"` // invalid L2 files treated as misses
	Persisted      uint64 `json:"persisted"`       // L1 entries re-written to L2 by Persist

	L1Entries int   `json:"l1_entries"` // current L1 occupancy
	L1Bytes   int64 `json:"l1_bytes"`   // current L1 payload bytes
}

// Cache is the two-level result cache. It is safe for concurrent use.
//
// Level 1 is an in-memory LRU bounded by entry count and payload bytes.
// Level 2 is a directory of hash-sharded JSON files (<dir>/<key[:2]>/
// <key>.json) written atomically via temp-file + rename; a file that
// fails to read back as valid JSON — truncated by a crash, corrupted on
// disk — is deleted and treated as a miss, to be repaired by the next
// Put. Puts write through to L2; Persist re-writes any L1 entry whose
// L2 file is missing or invalid (the shutdown path).
type Cache struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	maxEntries int
	maxBytes   int64
	dir        string

	met *CacheMetrics
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache builds the cache, creating the L2 directory when configured.
func NewCache(opts CacheOptions) (*Cache, error) {
	if opts.L1Entries <= 0 {
		opts.L1Entries = DefaultL1Entries
	}
	if opts.L1Bytes <= 0 {
		opts.L1Bytes = DefaultL1Bytes
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	if opts.Metrics == nil {
		opts.Metrics = NewCacheMetrics(nil)
	}
	return &Cache{
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		maxEntries: opts.L1Entries,
		maxBytes:   opts.L1Bytes,
		dir:        opts.Dir,
		met:        opts.Metrics,
	}, nil
}

// path shards keys by their first two hex characters so no single
// directory accumulates every result.
func (c *Cache) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, shard, key+".json")
}

// Get returns the cached payload for key and the level that served it.
// The returned slice is shared and must be treated as read-only.
func (c *Cache) Get(key string) ([]byte, CacheLevel, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		c.met.L1Hits.Inc()
		return data, CacheL1, true
	}
	c.mu.Unlock()
	c.met.L1Misses.Inc()

	if c.dir == "" {
		return nil, CacheMiss, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.met.L2Misses.Inc()
		return nil, CacheMiss, false
	}
	if !json.Valid(data) {
		// Truncated or corrupted file: drop it so the next Put repairs
		// the slot, and report a miss.
		os.Remove(c.path(key))
		c.met.L2Misses.Inc()
		c.met.CorruptDropped.Inc()
		return nil, CacheMiss, false
	}
	c.mu.Lock()
	c.install(key, data)
	c.mu.Unlock()
	c.met.L2Hits.Inc()
	return data, CacheL2, true
}

// Put stores data under key in L1 and writes it through to L2. L2 write
// failures are soft (counted, not returned): the result stays servable
// from L1 and Persist retries the disk write at shutdown.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	c.install(key, data)
	c.mu.Unlock()
	c.met.Writes.Inc()
	if c.dir != "" {
		if err := c.writeL2(key, data); err != nil {
			c.met.WriteErrors.Inc()
		}
	}
}

// install places (key, data) at the L1 MRU position and evicts from the
// LRU end until the bounds hold again. Caller holds mu.
func (c *Cache) install(key string, data []byte) {
	if el, ok := c.items[key]; ok {
		c.bytes += int64(len(data)) - int64(len(el.Value.(*cacheEntry).data))
		el.Value.(*cacheEntry).data = data
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.data))
		c.met.Evictions.Inc()
	}
}

// writeL2 stores data atomically: write a private temp file in the
// destination directory, then rename over the final path, so readers
// only ever observe complete files (a crash mid-write leaves a stray
// .tmp, never a truncated result).
func (c *Cache) writeL2(key string, data []byte) error {
	dst := c.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// Persist writes every L1 entry whose L2 file is missing or invalid
// back to disk — the graceful-shutdown sweep that guarantees memory
// contents survive a restart. It returns the first write error after
// attempting every entry.
func (c *Cache) Persist() error {
	if c.dir == "" {
		return nil
	}
	c.mu.Lock()
	entries := make([]*cacheEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*cacheEntry))
	}
	c.mu.Unlock()

	var firstErr error
	var persisted uint64
	for _, e := range entries {
		if onDisk, err := os.ReadFile(c.path(e.key)); err == nil && json.Valid(onDisk) {
			continue
		}
		if err := c.writeL2(e.key, e.data); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		persisted++
	}
	c.met.Persisted.Add(persisted)
	return firstErr
}

// Stats returns a snapshot of the counters plus current L1 occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.ll.Len()
	bytes := c.bytes
	c.mu.Unlock()
	return CacheStats{
		L1Hits:         c.met.L1Hits.Value(),
		L1Misses:       c.met.L1Misses.Value(),
		L2Hits:         c.met.L2Hits.Value(),
		L2Misses:       c.met.L2Misses.Value(),
		Evictions:      c.met.Evictions.Value(),
		Writes:         c.met.Writes.Value(),
		WriteErrors:    c.met.WriteErrors.Value(),
		CorruptDropped: c.met.CorruptDropped.Value(),
		Persisted:      c.met.Persisted.Value(),
		L1Entries:      entries,
		L1Bytes:        bytes,
	}
}
