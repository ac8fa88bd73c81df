package ring

import (
	"math/rand"
	"testing"

	"cmpcache/internal/config"
)

// benchGaps is a fixed-seed table of transaction inter-arrival gaps,
// uniform over [0, 12) cycles. Its mean of 5.5 cycles keeps the data
// rings (two 8-cycle transfers in flight at a time, one transfer per
// 4 cycles at saturation) busy most of the time, so bookings both queue
// and find the rings idle.
func benchGaps() []config.Cycles {
	r := rand.New(rand.NewSource(1))
	gaps := make([]config.Cycles, 1<<16)
	for i := range gaps {
		gaps[i] = config.Cycles(r.Intn(12))
	}
	return gaps
}

// BenchmarkRingReserve times one transaction's ring bookings — an
// address-ring slot, then a line transfer on the data ring that frees
// first, from the slot's cycle — in ns per transaction.
func BenchmarkRingReserve(b *testing.B) {
	r := newRing()
	gaps := benchGaps()
	var now config.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += gaps[i&(len(gaps)-1)]
		r.ReserveData(r.ReserveAddress(now))
	}
	b.ReportMetric(float64(r.DataWaited())/float64(b.N), "data-wait-cycles/op")
}
