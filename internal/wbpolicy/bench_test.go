package wbpolicy

import (
	"math/rand"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
)

// BenchmarkPolicyHooks times, per policy, the hooks one demand combine
// and one victim call make, in ns per key: the shape
// TestPolicyHooksZeroAlloc drives. Keys are drawn from 2^16 random
// lines, twice a paper-sized 32K-entry table, and one pass over the
// sequence warms the tables before timing, so lookups both hit and
// miss. The outcome is a peer-sourced read, which trains the hybridui
// sharing score.
func BenchmarkPolicyHooks(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	universe := make([]uint64, 1<<16)
	for i := range universe {
		universe[i] = r.Uint64() >> 7
	}
	keys := make([]uint64, 1<<18)
	for i := range keys {
		keys[i] = universe[r.Intn(len(universe))]
	}
	out := coherence.Outcome{Source: coherence.SourcePeerL2, SourceAgent: 2, SharedElsewhere: true}
	for _, m := range []config.Mechanism{
		config.Baseline, config.WBHT, config.Snarf, config.Combined,
		config.ReuseDist, config.HybridUI,
	} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := config.Default().WithMechanism(m)
			p := New(&cfg)
			hooks := func(key uint64) {
				p.ObserveWriteBack(key)
				p.ObserveDemandMiss(key)
				p.ObserveDemandOutcome(1, key, coherence.Read, out)
				p.UseUpdate(key)
				p.ObserveLocalMiss(0, key)
				p.ObserveEviction(0, key)
				p.AbortCleanWB(0, key, true, false)
				p.FlagWriteBack(0, key)
				p.AcceptOffer(0, key)
			}
			for _, key := range keys {
				hooks(key)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hooks(keys[i&(len(keys)-1)])
			}
		})
	}
}
