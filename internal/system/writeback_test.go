package system

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/metrics"
	"cmpcache/internal/trace"
)

// key turns the lineAddr byte address back into a chip-wide line key
// (what the L2/L3 APIs take directly).
func key(cfg *config.Config, slice, set, tag int) uint64 {
	return lineAddr(cfg, slice, set, tag) / uint64(cfg.LineBytes)
}

// TestSnarfSettleWithoutTokenRequeuesEntry covers a snarf winner whose
// candidate way vanished. With the L3 queue token held, the line falls
// back to the L3. Without one it is the regression test for the
// lost-write-back bug: the entry used to be dropped on the floor — a
// dirty line silently vanished. The fix requeues it like any retried
// write back. Either way the line must reach the L3, and the observers
// must see the fallback's or the retry's disposition.
func TestSnarfSettleWithoutTokenRequeuesEntry(t *testing.T) {
	for _, tc := range []struct {
		name        string
		tokenHeld   bool
		disposition string // the WBCombine record settleSnarf raises
		next        string // the hook that follows it
	}{
		{"token-held", true, "snarf-fallback", "WBToL3"},
		{"no-token", false, "snarf-retry", "WBRetry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default().WithMechanism(config.Snarf)
			s, err := newSystem(cfg, mkTrace(trace.Record{Thread: 0, Op: trace.Load, Addr: 0x10000}))
			if err != nil {
				t.Fatal(err)
			}
			rec := observeHooks(s)
			cache, winner := s.l2s[0], s.l2s[1]

			// Fill the winner's target set with Exclusive lines:
			// AcceptSnarf finds no invalid (or shared) way and must
			// reject the install.
			for tag := 0; tag < cfg.L2Assoc; tag++ {
				winner.InstallFill(key(&cfg, 0, 0, 100+tag), coherence.Exclusive)
			}

			// Queue a dirty write back and put it on the bus, as pumpWB
			// would.
			victim := key(&cfg, 0, 0, 1)
			if got := cache.ProcessVictim(victim, coherence.Modified, false, false); got != l2.VictimQueued {
				t.Fatalf("ProcessVictim = %v, want queued", got)
			}
			if _, ok := cache.HeadWB(); !ok {
				t.Fatal("no issuable write-back entry")
			}
			s.wbInFlight[0] = true
			entry, cancelled := cache.CompleteWB(victim)
			if cancelled {
				t.Fatal("entry unexpectedly cancelled")
			}

			if tc.tokenHeld {
				// The write back's own snoop took an L3 queue token.
				if resp := s.l3.SnoopWB(victim, coherence.DirtyWB); resp != coherence.RespWBAccept {
					t.Fatalf("SnoopWB = %v, want accept", resp)
				}
			} else {
				// Exhaust the L3's incoming queue so no token is held.
				for i := 0; i < cfg.L3QueueEntries; i++ {
					if resp := s.l3.SnoopWB(key(&cfg, 0, 7, 500+i), coherence.DirtyWB); resp != coherence.RespWBAccept {
						t.Fatalf("token %d: SnoopWB = %v, want accept", i, resp)
					}
				}
			}
			s.settleSnarf(cache, entry, winner, tc.tokenHeld, s.engine.Now())

			if s.snarfFallbacks != 1 {
				t.Fatalf("snarfFallbacks = %d, want 1", s.snarfFallbacks)
			}
			for hook, arg := range map[string]string{"WBCombine": tc.disposition, tc.next: ""} {
				want := []hookCall{{L2: 0, Key: victim, Arg: arg}}
				if got := rec.calls[hook]; !slices.Equal(got, want) {
					t.Errorf("%s calls %+v, want %+v", hook, got, want)
				}
			}
			if !tc.tokenHeld {
				if got := cache.WBQueueLen(); got != 1 {
					t.Fatalf("write-back queue holds %d entries after failed snarf settle, want 1 (entry requeued, not dropped)", got)
				}
				if s.wbRetried != 1 {
					t.Fatalf("wbRetried = %d, want 1", s.wbRetried)
				}
				// Free the queue so the retry can re-arbitrate.
				for i := 0; i < cfg.L3QueueEntries; i++ {
					s.l3.ReleaseToken()
				}
			}

			// The dirty line must arrive in the L3 rather than vanish.
			s.engine.Run()
			if !s.l3.Contains(victim) {
				t.Fatal("dirty line never reached the L3: write back was lost")
			}
			if s.wbInFlight[0] {
				t.Fatal("write-back bus slot still held after queue drained")
			}
		})
	}
}

// wbStormTrace builds a trace in which each L2's threads keep storing
// to fresh tags of one set, so every store past the associativity
// evicts a dirty line — a sustained write-back storm from all four L2s
// at once.
func wbStormTrace(cfg *config.Config, rounds int) *trace.Trace {
	var recs []trace.Record
	for round := 0; round < rounds; round++ {
		for _, th := range []int{0, 4, 8, 12} {
			recs = append(recs, trace.Record{
				Thread: uint16(th),
				Op:     trace.Store,
				Addr:   lineAddr(cfg, 0, 0, 1000*th+round+1),
			})
		}
	}
	return mkTrace(recs...)
}

// TestWBRequestsCountsBusIssues is the regression test for the retry
// double-count: WBRequests used to be wbTxns + wbRetried, but a retried
// entry re-issues through the pump and increments wbTxns again, so each
// retry was counted twice. The structured event trace emits exactly one
// "wb" record per combine (= per bus issue), giving an independent
// count to check against.
func TestWBRequestsCountsBusIssues(t *testing.T) {
	cfg := config.Default()
	cfg.L3QueueEntries = 1 // starve the L3 queue so write backs retry
	tr := wbStormTrace(&cfg, 48)

	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	probe := metrics.NewProbe(metrics.Config{Interval: 10_000})
	var buf bytes.Buffer
	tw := metrics.NewTraceWriter(&buf, metrics.JSONL)
	probe.SetTrace(tw)
	s.Attach(Attachments{Probe: probe})
	r := s.Run()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	if r.WBRetried == 0 {
		t.Fatal("scenario produced no write-back retries; the double-count cannot be exercised")
	}
	busIssues := uint64(bytes.Count(buf.Bytes(), []byte(`"ev":"wb"`)))
	if r.WBRequests != busIssues {
		t.Fatalf("WBRequests = %d, want %d bus issues observed on the trace (WBRetried = %d)",
			r.WBRequests, busIssues, r.WBRetried)
	}
}

// TestProbeObservationOnly asserts the zero-perturbation contract: a
// run with a probe (and tracer) attached produces bit-identical results
// to the same run without one — only the Metrics series is added — and
// a probeless run marshals with no Metrics key at all.
func TestProbeObservationOnly(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Combined)
	tr := wbStormTrace(&cfg, 24)

	_, plain := run(t, cfg, tr)

	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	probe := metrics.NewProbe(metrics.Config{Interval: 500})
	var buf bytes.Buffer
	probe.SetTrace(metrics.NewTraceWriter(&buf, metrics.JSONL))
	s.Attach(Attachments{Probe: probe})
	probed := s.Run()

	if probed.Metrics == nil || len(probed.Metrics.Samples) == 0 {
		t.Fatal("probed run carries no metrics series")
	}
	stripped := *probed
	stripped.Metrics = nil
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("attaching a probe changed the simulated outcome")
	}
	if bytes.Contains(want, []byte(`"Metrics"`)) {
		t.Fatal("probeless results marshal a Metrics key; export bytes changed for no-metrics runs")
	}
}
