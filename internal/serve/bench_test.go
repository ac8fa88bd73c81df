package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// BenchmarkCacheGetL1 times a lookup that the in-memory LRU answers,
// for a result-sized payload: one op is one Get.
func BenchmarkCacheGetL1(b *testing.B) {
	benchCacheGet(b, CacheOptions{}, CacheL1)
}

// BenchmarkCacheGetL2 times a lookup that the disk answers: the file
// read, the JSON validation and the promotion into L1. L1's byte bound
// is below the payload, so the promotion is dropped again and every
// lookup reads the file, as the first lookup after a restart does.
func BenchmarkCacheGetL2(b *testing.B) {
	benchCacheGet(b, CacheOptions{L1Bytes: 1}, CacheL2)
}

func benchCacheGet(b *testing.B, opts CacheOptions, want CacheLevel) {
	opts.Dir = b.TempDir()
	c, err := NewCache(opts)
	if err != nil {
		b.Fatal(err)
	}
	key := strings.Repeat("5e", 32) // as long as a sweep.Key
	c.Put(key, resultPayload())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, level, ok := c.Get(key); !ok || level != want {
			b.Fatalf("Get answered level %q (hit %v), want %q", level, ok, want)
		}
	}
}

// resultPayload is valid JSON about the size of one job's Results
// JSON, 13 KB.
func resultPayload() []byte {
	var b bytes.Buffer
	b.WriteString(`{"Buckets":[`)
	for i := 0; b.Len() < 13<<10; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"Le":%d,"Count":%d}`, 1<<(i%40), i*7919)
	}
	b.WriteString("]}")
	return b.Bytes()
}
