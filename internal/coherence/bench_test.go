package coherence

import "testing"

// Agent IDs as internal/system assigns them on the default chip: the
// peer L2s of requester 0, then the L3 and memory controllers.
const (
	benchL3  = 100
	benchMem = 101
)

// combineCycle is one response set per outcome the Snoop Collector
// resolves, as the snoops of a 4-L2 chip deliver them: demands served
// by a peer, the L3 and memory, a demand retried on a full L3 queue,
// and write backs taken by the L3, squashed by a peer or by the L3, and
// snarfed with two peers contending.
var combineCycle = []struct {
	kind      TxnKind
	responses []AgentResponse
}{
	{Read, []AgentResponse{{1, RespModifiedIntervention}, {2, RespShared}, {3, RespNull}, {benchL3, RespL3Hit}, {benchMem, RespMemAck}}},
	{Read, []AgentResponse{{1, RespNull}, {2, RespNull}, {3, RespNull}, {benchL3, RespL3Hit}, {benchMem, RespMemAck}}},
	{RWITM, []AgentResponse{{1, RespNull}, {2, RespNull}, {3, RespNull}, {benchL3, RespNull}, {benchMem, RespMemAck}}},
	{Read, []AgentResponse{{1, RespNull}, {2, RespShared}, {3, RespNull}, {benchL3, RespRetry}, {benchMem, RespMemAck}}},
	{CleanWB, []AgentResponse{{benchL3, RespWBAccept}, {1, RespNull}, {2, RespNull}, {3, RespNull}}},
	{CleanWB, []AgentResponse{{benchL3, RespWBAccept}, {1, RespNull}, {2, RespWBSquash}, {3, RespNull}}},
	{CleanWB, []AgentResponse{{benchL3, RespWBRedundant}, {1, RespNull}, {2, RespNull}, {3, RespNull}}},
	{DirtyWB, []AgentResponse{{benchL3, RespWBAccept}, {1, RespSnarfAccept}, {2, RespNull}, {3, RespSnarfAccept}}},
}

// BenchmarkCollectorCombine times Collector.Combine over combineCycle,
// in ns per combined response.
func BenchmarkCollectorCombine(b *testing.B) {
	c := NewCollector()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		set := &combineCycle[i%len(combineCycle)]
		c.Combine(set.kind, set.responses)
		i++
	}
}
