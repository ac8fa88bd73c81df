package cache

import (
	"math/rand"
	"testing"
)

// One L3 slice's geometry (4 MB of 128 B lines, 16-way) and Trade2's
// L3 demand hit rate.
const (
	benchSets    = 2048
	benchAssoc   = 16
	benchHitRate = 0.65
	benchSeqLen  = 1 << 20
)

// benchCache returns a filled cache and a key sequence that hits it at
// about benchHitRate. Keys are random, so they spread uniformly over the
// sets; the universe holds capacity/benchHitRate keys and is inserted
// once in random order, so each set keeps a random benchHitRate share of
// its keys. Lookups leave residency unchanged, and uniform inserts keep
// the same hit rate, since a uniform draw is independent of what the
// cache holds.
func benchCache() (*Cache, []uint64) {
	r := rand.New(rand.NewSource(1))
	c := New(benchSets, benchAssoc)
	universe := make([]uint64, int(float64(c.Capacity())/benchHitRate))
	for i := range universe {
		universe[i] = r.Uint64()
	}
	for _, k := range universe {
		c.Insert(k, 1, 0, true)
	}
	seq := make([]uint64, benchSeqLen)
	for i := range seq {
		seq[i] = universe[r.Intn(len(universe))]
	}
	return c, seq
}

// BenchmarkCacheLookup times a demand probe (LookupTouch: tag scan plus
// the recency update on a hit) in ns per lookup.
func BenchmarkCacheLookup(b *testing.B) {
	c, seq := benchCache()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.LookupTouch(seq[i&(benchSeqLen-1)]) != nil {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkCacheInsert times a fill (Insert at MRU: an in-place update on
// a hit, victim choice and displacement on a miss) in ns per insert.
func BenchmarkCacheInsert(b *testing.B) {
	c, seq := benchCache()
	evictions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, did := c.Insert(seq[i&(benchSeqLen-1)], 1, 0, true); did {
			evictions++
		}
	}
	b.ReportMetric(1-float64(evictions)/float64(b.N), "hits/op")
}

// BenchmarkCacheTouchOrInsert times a reuse-table update (TouchOrInsert:
// a recency update on a hit, victim choice and displacement at MRU on a
// miss, one probe either way) in ns per update.
func BenchmarkCacheTouchOrInsert(b *testing.B) {
	c, seq := benchCache()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, _ := c.TouchOrInsert(seq[i&(benchSeqLen-1)], 1, 0); m != nil {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}
