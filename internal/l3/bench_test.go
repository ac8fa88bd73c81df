package l3

import (
	"math/rand"
	"testing"

	"cmpcache/internal/config"
)

// BenchmarkL3ReserveSlice times one booking of off-chip array bandwidth
// on a key's L3 slice, in ns per booking. Keys are drawn uniformly, so
// they spread over the four slices. Fixed-seed inter-arrival gaps,
// uniform over [0, 16) cycles, give each slice one 20-cycle access per
// 30 cycles on average, so bookings both queue and find a slice idle.
func BenchmarkL3ReserveSlice(b *testing.B) {
	cfg := config.Default()
	c := New(&cfg)
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	gaps := make([]config.Cycles, len(keys))
	for i := range keys {
		keys[i], gaps[i] = r.Uint64(), config.Cycles(r.Intn(16))
	}
	var now config.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(keys) - 1)
		now += gaps[j]
		c.ReserveSlice(keys[j], now)
	}
	b.ReportMetric(float64(c.SliceWaited())/float64(b.N), "wait-cycles/op")
}
