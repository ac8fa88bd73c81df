package system

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/workload"
)

// TestRunContextBitIdentical proves the cooperative-cancellation run
// loop fires exactly the same events as Run: a completed RunContext
// exports byte-identical results.
func TestRunContextBitIdentical(t *testing.T) {
	prof, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	prof.RefsPerThread = 2000
	tr, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithMechanism(config.Combined)

	sysA, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	plain := sysA.Run()

	sysB, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := sysB.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}

	ja, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(ctxRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("RunContext results differ from Run (EventsFired %d vs %d)",
			ctxRes.EventsFired, plain.EventsFired)
	}
}

// TestRunContextCancel proves a cancelled context stops the run mid-way
// with the context's error instead of completing.
func TestRunContextCancel(t *testing.T) {
	prof, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	prof.RefsPerThread = 100_000 // long enough to be mid-flight when cancelled
	tr, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newSystem(config.Default(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := sys.RunContext(ctx)
	if err != context.Canceled {
		t.Fatalf("RunContext = (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("cancelled run returned results")
	}
	// Cancellation latency is bounded by the poll granularity, not the
	// run length; give CI plenty of slack.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestRunContextAlreadyCancelled proves a pre-cancelled context stops
// the run before any meaningful work.
func TestRunContextAlreadyCancelled(t *testing.T) {
	prof, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	prof.RefsPerThread = 50_000
	tr, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newSystem(config.Default(), tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx); err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}
