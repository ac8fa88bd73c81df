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
	"cmpcache/internal/trace"
)

// idleTrace is a one-thread trace with no records: a run over it fires
// only the events a test schedules by hand.
func idleTrace() *trace.Trace { return &trace.Trace{Name: "idle", Threads: 1} }

// traceVictim is one victim line of a JSONL event trace.
type traceVictim struct {
	T   config.Cycles
	L2  int
	Key uint64
}

// tracedVictims parses the victim events of a JSONL event trace.
func tracedVictims(t *testing.T, tw *metrics.TraceWriter, buf *bytes.Buffer) []traceVictim {
	t.Helper()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var out []traceVictim
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var ev struct {
			traceVictim
			Ev string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Ev == "victim" {
			out = append(out, ev.traceVictim)
		}
	}
	return out
}

// TestBarrierLogOrder checks that the end of a slice-lane cycle drains
// the bus posts and observations of several slices in (slice, append)
// order, whatever order their events fired in.
func TestBarrierLogOrder(t *testing.T) {
	// appended: records appended by hand in descending slice order, with
	// repeated records from one slice among them. Demand posts are seen
	// through the combine events they schedule: each post books the next
	// address-ring slot, so the combines fire in drain order.
	// Observations are seen through the victim records they replay into
	// the event trace.
	t.Run("appended", func(t *testing.T) {
		s, err := newSystem(config.Default(), exportTrace())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s.tracer = metrics.NewTraceWriter(&buf, metrics.JSONL)
		var posted []uint64
		s.hCombineDemand = func(d sim.EventData) { posted = append(posted, d.Key) }

		// Records in append order; a record's key is its append index + 1.
		const at = 15
		appended := []int{3, 1, 1, 0, 2, 2, 2, 0, 1, 3, 1, 0, 3}
		for i, slice := range appended {
			sh, key := s.shards[slice], uint64(i+1)
			sh.postDemandTxn(key, coherence.Read)
			sh.logVictim(key, coherence.Shared, l2.VictimAborted, false)
		}
		order := make([]int, len(appended))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return appended[order[i]] < appended[order[j]] })
		want := make([]uint64, len(order))
		for i, k := range order {
			want[i] = uint64(k + 1)
		}

		s.drainLogs(at)
		s.engine.Run()
		var observed []uint64
		for _, ev := range tracedVictims(t, s.tracer, &buf) {
			if ev.T != at || ev.L2 != appended[ev.Key-1] {
				t.Errorf("victim %d replayed at cycle %d on L2 %d, logged at %d on %d", ev.Key, ev.T, ev.L2, at, appended[ev.Key-1])
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
			t.Errorf("drain left %d observations and %d posts", len(s.obs), len(s.posts))
		}
	})

	// reinstall-victims: slices 2 and 1 each probe, in one cycle, a line
	// waiting in their write-back queue while its set is full, slice 2's
	// probe first. Each reinstall evicts a victim on the slice lane, and
	// the trace must list the two victims in slice order.
	t.Run("reinstall-victims", func(t *testing.T) {
		cfg := config.Default()
		s, err := newSystem(cfg, idleTrace())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s.tracer = metrics.NewTraceWriter(&buf, metrics.JSONL)
		slicesDesc := []int{2, 1}
		queued := map[int]uint64{}
		for _, slice := range slicesDesc {
			c := s.l2s[slice]
			for tag := 0; tag <= cfg.L2Assoc; tag++ {
				vKey, vState, evicted := c.InstallFill(key(&cfg, slice, 0, tag), coherence.Modified)
				if !evicted {
					continue
				}
				if got := c.ProcessVictim(vKey, vState, false, false); got != l2.VictimQueued {
					t.Fatalf("L2 %d: ProcessVictim(%#x) = %v, want queued", slice, vKey, got)
				}
				queued[slice] = vKey
			}
		}
		for _, slice := range slicesDesc {
			s.shards[slice].access(trace.Load, queued[slice], func(config.Cycles) {})
		}
		s.Run()

		victims := tracedVictims(t, s.tracer, &buf)
		if len(victims) != 2 {
			t.Fatalf("traced %d victims, want 2: %+v", len(victims), victims)
		}
		want := []traceVictim{
			{T: victims[0].T, L2: 1, Key: key(&cfg, 1, 0, 1)},
			{T: victims[0].T, L2: 2, Key: key(&cfg, 2, 0, 1)},
		}
		if !slices.Equal(victims, want) {
			t.Errorf("traced victims %+v, want %+v", victims, want)
		}
	})
}

// TestSwitchAdvancesEveryCycle checks that the retry switch's sampling
// window advances before each cycle's first event: a global event at
// cycle 105 reads the decision of the window [0, 100), which saw one
// retry, although no event ran at cycle 100.
func TestSwitchAdvancesEveryCycle(t *testing.T) {
	cfg := config.Default()
	cfg.WBHT.RetryWindow = 100
	cfg.WBHT.RetryThreshold = 1
	s, err := newSystem(cfg, idleTrace())
	if err != nil {
		t.Fatal(err)
	}
	s.rswitch.RecordRetry(10)
	var reads []bool
	for _, at := range []config.Cycles{95, 105} {
		s.engine.At(at, func() { reads = append(reads, s.rswitch.ActiveNow()) })
	}
	s.Run()
	if want := []bool{false, true}; !slices.Equal(reads, want) {
		t.Errorf("switch read %v at cycles 95 and 105, want %v", reads, want)
	}
}
