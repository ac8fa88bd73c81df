package system

import (
	"slices"
	"sort"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/observe"
	"cmpcache/internal/sim"
	"cmpcache/internal/trace"
)

// idleTrace is a one-thread trace with no records: a run over it fires
// only the events a test schedules by hand.
func idleTrace() *trace.Trace { return &trace.Trace{Name: "idle", Threads: 1} }

// hookCall is one observer hook call a recorder saw.
type hookCall struct {
	T   config.Cycles
	L2  int
	Key uint64
	Arg string // WBCombine: the disposition; Upgrade: "restarted" or "committed"
}

// recorder is an observer that records the victim, upgrade and
// write-back hooks the system tests check, by hook name.
type recorder struct {
	observe.Base
	calls map[string][]hookCall
}

// observeHooks attaches a new recorder to s.
func observeHooks(s *System) *recorder {
	r := &recorder{calls: map[string][]hookCall{}}
	s.observers = append(s.observers, r)
	return r
}

func (r *recorder) add(hook string, c hookCall) { r.calls[hook] = append(r.calls[hook], c) }

func (r *recorder) Victim(now config.Cycles, idx int, key uint64, _ coherence.State, _ l2.VictimAction, _, _ bool) {
	r.add("Victim", hookCall{T: now, L2: idx, Key: key})
}

func (r *recorder) Upgrade(now config.Cycles, idx int, key uint64, restarted, _ bool, _ coherence.State) {
	arg := "committed"
	if restarted {
		arg = "restarted"
	}
	r.add("Upgrade", hookCall{T: now, L2: idx, Key: key, Arg: arg})
}

func (r *recorder) WBCombine(now config.Cycles, idx int, key uint64, _ coherence.TxnKind, disposition string, _ bool) {
	r.add("WBCombine", hookCall{T: now, L2: idx, Key: key, Arg: disposition})
}

func (r *recorder) WBToL3(now config.Cycles, idx int, e l2.WBEntry) {
	r.add("WBToL3", hookCall{T: now, L2: idx, Key: e.Key})
}

func (r *recorder) WBRetry(now config.Cycles, idx int, key uint64) {
	r.add("WBRetry", hookCall{T: now, L2: idx, Key: key})
}

// TestBarrierLogOrder checks that the end of a slice-lane cycle drains
// the bus posts and observations of several slices in (slice, append)
// order, whatever order their events fired in.
func TestBarrierLogOrder(t *testing.T) {
	// appended: records appended by hand in descending slice order, with
	// repeated records from one slice among them. Demand posts are seen
	// through the combine events they schedule: each post books the next
	// address-ring slot, so the combines fire in drain order.
	// Observations are seen through the Victim hooks they replay into a
	// recording observer.
	t.Run("appended", func(t *testing.T) {
		s, err := newSystem(config.Default(), exportTrace())
		if err != nil {
			t.Fatal(err)
		}
		rec := observeHooks(s)
		var posted []uint64
		s.hCombineDemand = func(d sim.EventData) { posted = append(posted, d.Key) }

		// Records in append order; a record's key is its append index + 1.
		const at = 15
		appended := []int{3, 1, 1, 0, 2, 2, 2, 0, 1, 3, 1, 0, 3}
		for i, slice := range appended {
			cache, key := s.l2s[slice], uint64(i+1)
			s.postDemandTxn(cache, key, coherence.Read)
			s.logObs(cache, obsRec{kind: obsVictim, key: key, vState: coherence.Shared, vAction: l2.VictimAborted})
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
		for _, ev := range rec.calls["Victim"] {
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
	// the observer must see the two victims in slice order.
	t.Run("reinstall-victims", func(t *testing.T) {
		cfg := config.Default()
		s, err := newSystem(cfg, idleTrace())
		if err != nil {
			t.Fatal(err)
		}
		rec := observeHooks(s)
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
			s.access(s.l2s[slice], trace.Load, queued[slice], func(config.Cycles) {})
		}
		s.Run()

		victims := rec.calls["Victim"]
		if len(victims) != 2 {
			t.Fatalf("observed %d victims, want 2: %+v", len(victims), victims)
		}
		want := []hookCall{
			{T: victims[0].T, L2: 1, Key: key(&cfg, 1, 0, 1)},
			{T: victims[0].T, L2: 2, Key: key(&cfg, 2, 0, 1)},
		}
		if !slices.Equal(victims, want) {
			t.Errorf("observed victims %+v, want %+v", victims, want)
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
