package system

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/metrics"
	"cmpcache/internal/sim"
)

// TestBarrierLogOrder appends bus posts and observations from several
// slices, same-cycle records in descending slice order and repeated
// records from one slice among them, and checks that the barrier
// drains both logs in (time, slice, append) order. Demand posts are
// seen through the combine events they schedule: each post books the
// next address-ring slot, so the combines fire in drain order.
// Observations are seen through the victim records they replay into
// the event trace.
func TestBarrierLogOrder(t *testing.T) {
	s, err := New(config.Default(), exportTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.tracer = metrics.NewTraceWriter(&buf, metrics.JSONL)
	var posted []uint64
	s.hCombineDemand = func(d sim.EventData) { posted = append(posted, d.Key) }

	// Records in append order; a record's key is its append index + 1.
	appended := []logStamp{
		{10, 3}, {10, 1}, {10, 1}, {10, 0}, {10, 2},
		{12, 2}, {12, 2}, {12, 0},
		{15, 1}, {15, 3}, {15, 1}, {15, 0}, {15, 3},
	}
	for i, st := range appended {
		sh, key := s.shards[st.slice], uint64(i+1)
		sh.postDemandTxn(st.at, key, coherence.Read)
		sh.logVictim(st.at, key, coherence.Shared, l2.VictimAborted, false, false)
	}
	order := make([]int, len(appended))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return appended[order[i]].before(appended[order[j]])
	})
	want := make([]uint64, len(order))
	for i, k := range order {
		want[i] = uint64(k + 1)
	}

	s.drainBarrier(15)
	s.engine.Run()
	if err := s.tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var observed []uint64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			T   config.Cycles
			L2  int
			Key uint64
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if st := appended[ev.Key-1]; ev.T != st.at || ev.L2 != st.slice {
			t.Errorf("victim %d replayed at cycle %d on L2 %d, logged at %d on %d", ev.Key, ev.T, ev.L2, st.at, st.slice)
		}
		observed = append(observed, ev.Key)
	}
	for _, got := range []struct {
		log  string
		keys []uint64
	}{{"post", posted}, {"observation", observed}} {
		if !slices.Equal(got.keys, want) {
			t.Errorf("%s log drained as %v, want %v", got.log, got.keys, want)
		}
	}
	if len(s.obs) != 0 || len(s.posts) != 0 {
		t.Errorf("barrier left %d observations and %d posts", len(s.obs), len(s.posts))
	}
}
