package system

import (
	"strings"
	"testing"
	"testing/quick"

	"cmpcache/internal/config"
)

func TestReuseTrackerScoresNextMissOnly(t *testing.T) {
	r := newReuseTracker()
	r.recordAttempt(1)
	r.recordDemandMiss(1)
	r.recordDemandMiss(1) // second miss without an intervening WB: no double count
	s := r.snapshot()
	if s.Attempted != 1 || s.ReusedAttempt != 1 {
		t.Fatalf("attempted/reused = %d/%d, want 1/1", s.Attempted, s.ReusedAttempt)
	}
}

func TestReuseTrackerSeparatesAcceptedFromAttempted(t *testing.T) {
	r := newReuseTracker()
	r.recordAttempt(1) // attempted, not accepted (e.g. squashed)
	r.recordAttempt(2)
	r.recordAccepted(2)
	r.recordDemandMiss(1)
	r.recordDemandMiss(2)
	s := r.snapshot()
	if s.Attempted != 2 || s.Accepted != 1 {
		t.Fatalf("attempted/accepted = %d/%d", s.Attempted, s.Accepted)
	}
	if s.ReusedAttempt != 2 || s.ReusedAccepted != 1 {
		t.Fatalf("reused attempt/accepted = %d/%d", s.ReusedAttempt, s.ReusedAccepted)
	}
	if s.PctTotalReused() != 100 || s.PctAcceptedReused() != 100 {
		t.Fatalf("percentages = %v/%v", s.PctTotalReused(), s.PctAcceptedReused())
	}
}

func TestReuseTrackerMissWithoutWBIgnored(t *testing.T) {
	r := newReuseTracker()
	r.recordDemandMiss(9)
	s := r.snapshot()
	if s.ReusedAttempt != 0 || s.Rerefs.Count() != 0 {
		t.Fatalf("phantom reuse recorded: %+v", s)
	}
}

func TestReuseTrackerRerefHistogram(t *testing.T) {
	r := newReuseTracker()
	r.recordAttempt(5)
	for i := 0; i < 7; i++ {
		r.recordDemandMiss(5)
	}
	s := r.snapshot()
	if s.Rerefs.Max() != 7 {
		t.Fatalf("reref max = %d, want 7", s.Rerefs.Max())
	}
	if s.Rerefs.Count() != 1 {
		t.Fatalf("reref lines = %d, want 1", s.Rerefs.Count())
	}
}

// TestReuseTrackerGrowKeepsRecords drives the per-line table through
// several doublings and checks every record survives rehashing. Each
// read of the table drains the update log first.
func TestReuseTrackerGrowKeepsRecords(t *testing.T) {
	r := newReuseTracker()
	defer r.stop()
	const lines = 20000
	for k := uint64(0); k < lines; k++ {
		r.recordAttempt(k * 64)
		if k%2 == 0 {
			r.recordL3Insert(k * 64)
		}
	}
	for k := uint64(0); k < lines; k++ {
		r.recordDemandMiss(k * 64)
		r.drain()
		if got := r.table.everInL3(k * 64); got != (k%2 == 0) {
			t.Fatalf("line %d: everInL3 = %v", k, got)
		}
	}
	if r.table.everInL3(lines * 64) {
		t.Fatal("untracked line reported in L3")
	}
	s := r.snapshot()
	if s.ReusedAttempt != lines || s.Rerefs.Count() != lines || s.Rerefs.Max() != 1 {
		t.Fatalf("reused %d, reref lines %d, max %d; want %d, %d, 1",
			s.ReusedAttempt, s.Rerefs.Count(), s.Rerefs.Max(), lines, lines)
	}
}

// Property: reused counts never exceed their denominators regardless of
// event interleaving.
func TestReuseTrackerBoundsProperty(t *testing.T) {
	f := func(events []struct {
		Key  uint8
		Kind uint8
	}) bool {
		r := newReuseTracker()
		for _, e := range events {
			k := uint64(e.Key % 8)
			switch e.Kind % 3 {
			case 0:
				r.recordAttempt(k)
			case 1:
				r.recordAccepted(k)
			case 2:
				r.recordDemandMiss(k)
			}
		}
		s := r.snapshot()
		return s.ReusedAttempt <= s.Attempted && s.PctTotalReused() <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultsSummaryMentionsMechanism(t *testing.T) {
	_, r := run(t, config.Default(), mkTrace())
	out := r.Summary()
	for _, want := range []string{"mechanism", "execution time", "L3 load hit rate", "access latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Summary missing %q:\n%s", want, out)
		}
	}
}
