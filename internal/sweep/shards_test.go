package sweep

import (
	"bytes"
	"context"
	"flag"
	"io"
	"runtime"
	"strings"
	"testing"

	"cmpcache/internal/config"
)

func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want int
		ok   bool
	}{
		{"auto", -1, true},
		{"", 1, true},
		{"AUTO", -1, true},
		{"serial", 1, true},
		{"1", 1, true},
		{"4", 4, true},
		{" 8 ", 8, true},
		{"0", 0, false},
		{"-2", 0, false},
		{"many", 0, false},
	} {
		got, err := ParseShards(tc.spec)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseShards(%q) = (%d, %v), want (%d, ok=%v)", tc.spec, got, err, tc.want, tc.ok)
		}
	}
}

// TestShardsFlagDefaultsSerial pins the shared -shards flag: left
// unset it resolves to the serial engine, and explicit specs parse as
// ParseShards does, failing Parse on a bad value.
func TestShardsFlagDefaultsSerial(t *testing.T) {
	parse := func(args ...string) (int, error) {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		n := ShardsFlag(fs)
		err := fs.Parse(args)
		return *n, err
	}
	if n, err := parse(); err != nil || n != 1 {
		t.Errorf("default -shards = (%d, %v), want serial (1)", n, err)
	}
	if n, err := parse("-shards", "auto"); err != nil || n != -1 {
		t.Errorf("-shards auto = (%d, %v), want -1", n, err)
	}
	if n, err := parse("-shards", "4"); err != nil || n != 4 {
		t.Errorf("-shards 4 = (%d, %v), want 4", n, err)
	}
	if _, err := parse("-shards", "bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("-shards bogus: err = %v, want one naming the value", err)
	}
}

// TestFitWorkers pins the oversubscription guard: an explicit shard
// count shrinks the concurrent-run pool so runs x shards fits
// GOMAXPROCS; serial and auto shards never clamp.
func TestFitWorkers(t *testing.T) {
	withGOMAXPROCS(t, 8)
	for _, tc := range []struct {
		workers, shards int
		want            int
		clamped         bool
	}{
		{8, 0, 8, false},  // serial runs: untouched
		{8, 1, 8, false},  // explicit serial: untouched
		{8, -1, 8, false}, // auto adapts per-run instead of clamping
		{8, 2, 4, true},   // 4 runs x 2 shards = 8 cores
		{8, 4, 2, true},
		{8, 8, 1, true},
		{8, 16, 1, true}, // absurd request still leaves one run going
		{2, 4, 2, false}, // 2 x 4 = 8 already fits
		{3, 4, 2, true},
		{1, 8, 1, false}, // a single run may use the whole budget
	} {
		got, clamped := FitWorkers(tc.workers, tc.shards)
		if got != tc.want || clamped != tc.clamped {
			t.Errorf("FitWorkers(%d, %d) = (%d, %v), want (%d, %v)",
				tc.workers, tc.shards, got, clamped, tc.want, tc.clamped)
		}
	}
	if s := AutoShards(2); s != 4 {
		t.Errorf("AutoShards(2) = %d under GOMAXPROCS=8, want 4", s)
	}
	if s := AutoShards(8); s != 1 {
		t.Errorf("AutoShards(8) = %d under GOMAXPROCS=8, want 1", s)
	}
}

// TestShardedSweepClampsAndLogs runs a real two-job sweep with an
// explicit per-run shard count wider than the core budget and asserts
// (a) the clamp is reported on Log, (b) the goroutine population stays
// within the clamped budget — one run's worth of shard workers plus the
// pool itself — and (c) the exported bytes match a serial sweep's.
func TestShardedSweepClampsAndLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	withGOMAXPROCS(t, 4)
	jobs := []Job{
		{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 300},
		{Workload: "tp", Mechanism: config.Combined, RefsPerThread: 300},
	}

	export := func(opts Options) string {
		results := Run(context.Background(), jobs, opts)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	serial := export(Options{Workers: 1})

	base := runtime.NumGoroutine()
	var logged []string
	peak := 0
	sharded := export(Options{
		Workers: 4, // wants 4 runs x 4 shards = 16 goroutines on 4 cores
		Shards:  4,
		Log:     func(format string, args ...any) { logged = append(logged, format) },
		Progress: func(Progress) {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		},
	})

	if len(logged) == 0 {
		t.Error("oversubscribed sweep did not log its worker clamp")
	}
	// Clamped budget: 1 sweep worker running 1 simulation at 4 shards
	// (3 extra shard goroutines; the sweep worker doubles as shard
	// worker 0), plus slack for the runtime's own background goroutines.
	if budget := base + 1 + 3 + 4; peak > budget {
		t.Errorf("goroutine peak %d exceeds clamped budget %d (base %d)", peak, budget, base)
	}
	if sharded != serial {
		t.Error("sharded sweep exported different bytes than the serial sweep")
	}
}
