package system

import (
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

// Section 7 extension tests: coarse WBHT entries and history-informed
// replacement, exercised through full-system runs.

func recyclingTrace(cfg *config.Config, rounds int) *trace.Trace {
	var recs []trace.Record
	for round := 0; round < rounds; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(cfg, 0, 0, i), Gap: 2000,
			})
		}
	}
	return mkTrace(recs...)
}

func TestCoarseWBHTEndToEnd(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false
	cfg.WBHT.LinesPerEntry = 4
	_, r := run(t, cfg, recyclingTrace(&cfg, 3))
	if r.L2.CleanWBAborted == 0 {
		t.Fatal("coarse WBHT never aborted")
	}
	// Coarse entries cover whole groups: aborts must be at least as
	// frequent as with per-line entries on the same trace.
	fine := config.Default().WithMechanism(config.WBHT)
	fine.WBHT.SwitchEnabled = false
	_, rf := run(t, fine, recyclingTrace(&fine, 3))
	if r.L2.CleanWBAborted < rf.L2.CleanWBAborted {
		t.Fatalf("coarse aborts (%d) < fine aborts (%d); coverage should not shrink",
			r.L2.CleanWBAborted, rf.L2.CleanWBAborted)
	}
}

func TestCoarseWBHTGreaterCoverageUnderSmallTable(t *testing.T) {
	// With a tiny table, coarse entries must cover strictly more lines.
	mk := func(gran int) uint64 {
		cfg := config.Default().WithMechanism(config.WBHT)
		cfg.WBHT.SwitchEnabled = false
		cfg.WBHT.Entries = 32
		cfg.WBHT.Assoc = 4
		cfg.WBHT.LinesPerEntry = gran
		// Recycle 4 full sets (36 lines) through one L2.
		var recs []trace.Record
		for round := 0; round < 3; round++ {
			for set := 0; set < 4; set++ {
				for i := 0; i <= cfg.L2Assoc; i++ {
					recs = append(recs, trace.Record{
						Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, set, i), Gap: 1500,
					})
				}
			}
		}
		_, r := run(t, cfg, mkTrace(recs...))
		return r.L2.CleanWBAborted
	}
	fine, coarse := mk(1), mk(8)
	if coarse <= fine {
		t.Fatalf("coarse(8) aborts = %d, fine = %d; want coverage gain", coarse, fine)
	}
}

func TestHistoryReplacementPrefersL3ResidentVictims(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false
	cfg.WBHT.HistoryReplacement = true
	_, r := run(t, cfg, recyclingTrace(&cfg, 4))
	if r.L2.HistoryVictims == 0 {
		t.Fatal("history-informed replacement never chose a victim")
	}
	if r.RefsCompleted == 0 || r.RefsCompleted != r.RefsIssued {
		t.Fatalf("conservation broken: %d/%d", r.RefsCompleted, r.RefsIssued)
	}
}

func TestHistoryReplacementOffByDefault(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false
	_, r := run(t, cfg, recyclingTrace(&cfg, 4))
	if r.L2.HistoryVictims != 0 {
		t.Fatalf("HistoryVictims = %d without the feature enabled", r.L2.HistoryVictims)
	}
}

func TestHistoryReplacementCoherent(t *testing.T) {
	// The alternate victim choice must not break coherence invariants
	// under a shared read/write mix.
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false
	cfg.WBHT.HistoryReplacement = true
	const lines = 64
	var recs []trace.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, trace.Record{
			Thread: uint16((i * 7) % 16),
			Op:     trace.Op((i / 5) % 2),
			Addr:   uint64((i*31)%lines) * 128,
			Gap:    uint32(i % 4),
		})
	}
	s, r := run(t, cfg, mkTrace(recs...))
	if r.RefsCompleted != 3000 {
		t.Fatalf("completed %d of 3000", r.RefsCompleted)
	}
	for key := uint64(0); key < lines; key++ {
		var owners int
		for _, c := range s.l2s {
			if st := c.Line(key).State(); st.SoleCopy() {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("line %d has %d exclusive owners", key, owners)
		}
	}
}
