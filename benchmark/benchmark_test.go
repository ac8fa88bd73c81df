package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 0}, {1, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// serve_mixed names its tails p95 (cold) and p99 (warm); its
	// operation counts must support them.
	if tailPercentile(coldOps) < 95 || tailPercentile(warmOps) < 99 {
		t.Errorf("%d cold and %d warm operations cannot support cold p95 and warm p99", coldOps, warmOps)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, shuffled order does not matter
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := median(xs); got != 100.5 {
		t.Errorf("median of 1..200 = %v, want 100.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCPUSharesChargeInnermostLayer(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d stacks, want 6", len(samples))
	}
	byLayer, byCause := cpuShares(samples)
	want := map[string]float64{
		"sim":     40, // the engine's own frames
		"l2":      20, // map access inside the L2 model lands on l2
		"runtime": 10, // the background GC worker has no layer frame
		"trace":   10, // inflate called by the trace reader
		"other":   10, // JSON encoding called from main
		"serve":   10, // a GC assist inside serve's allocation
	}
	var total float64
	for layer, share := range byLayer {
		total += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("cpu.%s = %v%%, want %v%%", layer, share, want[layer])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("layer shares sum to %v%%, want 100%%", total)
	}
	wantCause := map[string]float64{"gc": 20, "maps": 20, "json": 10, "flate": 10}
	for cause, share := range wantCause {
		if math.Abs(byCause[cause]-share) > 1e-9 {
			t.Errorf("cpu.cause.%s = %v%%, want %v%%", cause, byCause[cause], share)
		}
	}
}

func TestParseSampleTime(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 1e7, "1.50s": 1.5e9, "250us": 2.5e5, "2mins": 120e9, "7ns": 7} {
		if got, ok := parseSampleTime(s); !ok || got != want {
			t.Errorf("parseSampleTime(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	if _, ok := parseSampleTime("job:"); ok {
		t.Error("a label key parsed as a sample time")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Start: 12, End: 15},
	}
	want := []int64{50, 17, 30, 30, 3}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func runs(seed0 uint64, xs ...float64) []sample {
	out := make([]sample, len(xs))
	for i, x := range xs {
		out[i] = sample{seed0 + uint64(i), x}
	}
	return out
}

func scale(ss []sample, f float64) []sample {
	out := slices.Clone(ss)
	for i := range out {
		out[i].value *= f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	rate := metricDef{Name: "refs_per_s", Better: "higher", Bound: 0.08}
	cycles := metricDef{Name: "sim_cycles", Better: "lower", Bound: 0.05, Exact: true}
	steady := runs(1, 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	wide := runs(1, 50, 150, 70, 130, 90, 110, 60, 140, 80, 120)
	for _, tc := range []struct {
		name    string
		def     metricDef
		a, b    []sample
		verdict string
		claim   bool
	}{
		{"faster in every pair", rate, steady, scale(steady, 1.2), better, true},
		{"unchanged", rate, steady, steady, noWorse, false},
		{"slower than the bound", rate, steady, scale(steady, 0.85), worse, false},
		{"slower within the bound", rate, steady, scale(steady, 0.95), noWorse, false},
		{"too few pairs to claim", rate, steady[:5], scale(steady[:5], 1.2), noWorse, false},
		{"spread wider than the bound", rate, wide, wide, unresolved, false},
		{"wide but every run better", rate, wide, scale(wide, 4), better, true},
		{"simulated cycles repeat", cycles, steady, steady, noWorse, false},
		{"simulated cycles change on one seed", cycles, steady,
			append(slices.Clone(steady[:9]), sample{steady[9].seed, 99}), worse, false},
	} {
		c := judge(tc.def, tc.a, tc.b)
		if c.verdict != tc.verdict || c.claim != tc.claim {
			t.Errorf("%s: verdict %s (claim %v), want %s (claim %v)", tc.name, c.verdict, c.claim, tc.verdict, tc.claim)
		}
	}
}

// TestCalibrationChaseVisitsEveryEntry checks that the calibration's
// pointer chases cover their whole table, so they touch the memory they
// are sized for.
func TestCalibrationChaseVisitsEveryEntry(t *testing.T) {
	for _, n := range []int{1 << 4, 1 << 16} {
		tab := cycle(n)
		i, steps := tab[0], 1
		for ; i != 0 && steps <= n; steps++ {
			i = tab[i]
		}
		if steps != n {
			t.Errorf("chase through %d entries returns to its start after %d steps", n, steps)
		}
	}
}

func TestComparePairsBySeed(t *testing.T) {
	rate := metricDef{Name: "refs_per_s", Better: "higher", Bound: 0.5}
	// The change lacks seed 1 and reads 1 lower than the parent on every
	// other seed. Paired in file order, each of its runs would meet the
	// parent's previous seed and win.
	var a, b []sample
	for s := uint64(1); s <= 10; s++ {
		a = append(a, sample{s, float64(100 + 10*s)})
		if s > 1 {
			b = append(b, sample{s, float64(99 + 10*s)})
		}
	}
	if c := judge(rate, a, b); c.pairs != 9 || c.wins != 0 {
		t.Errorf("%d wins in %d pairs, want 0 in 9", c.wins, c.pairs)
	}
}

func TestCompareRefusesMixedLengths(t *testing.T) {
	recs := []record{{Workload: "w", Seed: 1, Seconds: 30}, {Workload: "w", Seed: 2, Seconds: 30},
		{Workload: "w", Seed: 1, Seconds: 5, Trace: 1}}
	if err := sameLength(recs); err != nil {
		t.Errorf("runs of one length: %v", err)
	}
	if err := sameLength(append(recs, record{Workload: "w", Seed: 3, Seconds: 10})); err == nil {
		t.Error("runs of 30s and 10s compared without an error")
	}
}

func TestServeSequences(t *testing.T) {
	caps := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	seqs, err := serveSequences(1, caps)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := serveSequences(1, caps)
	seen := make(map[string]bool)
	cold, warm := 0, 0
	for c, seq := range seqs {
		done := make(map[string]bool)
		for i, op := range seq {
			if op != again[c][i] {
				t.Fatalf("client %d op %d differs between two draws from one seed", c, i)
			}
			k := jobKey(op.job)
			if op.cold {
				if seen[k] {
					t.Errorf("triple %s drawn cold twice", k)
				}
				seen[k], done[k] = true, true
				cold++
			} else {
				if !done[k] {
					t.Errorf("client %d resubmits %s before completing it", c, k)
				}
				warm++
			}
		}
	}
	if cold != coldOps || warm != warmOps {
		t.Errorf("%d cold and %d warm operations, want %d and %d", cold, warm, coldOps, warmOps)
	}
}

// TestServeSequencesPinned pins the operations seed 1 draws, so that the
// parent and a change always run the same serve_mixed jobs. A change to
// the draw is a change to the benchmark's inputs.
func TestServeSequencesPinned(t *testing.T) {
	seqs, err := serveSequences(1, []string{"a", "b", "c", "d", "e", "f", "g", "h"})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for c, seq := range seqs {
		for _, op := range seq {
			fmt.Fprintf(h, "%d %v %s\n", c, op.cold, jobKey(op.job))
		}
	}
	const want = "bed3aaa6a185fb841e52f57df1426182679a27e2b7980cdc7818cd988eb92496"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("seed 1 draws operations with digest %s, want %s", got, want)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's definitions")

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workloads and metrics this program reports; -update rewrites it.
func TestBenchmarkJSONMatches(t *testing.T) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		if !d.Unlisted {
			spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range perLayer() {
		spec.PerLayer = append(spec.PerLayer, layer(d))
	}
	want, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of date; run go test -run TestBenchmarkJSONMatches -update")
	}
}
