package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts compare reports for one metric on one workload.
const (
	better     = "better"
	noWorse    = "no-worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// sample is one run's reading of a metric.
type sample struct {
	seed  uint64
	value float64
}

// comparison is the outcome for one metric on one workload.
type comparison struct {
	workload    string
	def         metricDef
	a, b        []sample
	wins, pairs int
	verdict     string
	claim       bool
}

// judge compares the parent's runs a with the change's runs b. A pair is
// the two sides' runs of one seed; seeds only one side ran, and repeated
// runs of a seed beyond the first, are left out of the pairs.
//
//   - An exact metric must repeat bit for bit on every seed both sides
//     ran; any difference is worse.
//   - When either side's spread (interquartile range over median) exceeds
//     the bound, the verdict is unresolved, unless every run of the change
//     reads better than every run of the parent.
//   - A median worse than the parent's by more than the bound is worse.
//   - The change is better only under the claim rule: at least ten pairs,
//     the change wins at least nine tenths of them (ties count for
//     neither), and the medians differ by more than the parent's
//     interquartile range.
//   - Otherwise it is no-worse.
func judge(def metricDef, a, b []sample) comparison {
	c := comparison{def: def, a: a, b: b}
	av, bv := values(a), values(b)
	isBetter := func(x, than float64) bool {
		if def.Better == "higher" {
			return x > than
		}
		return x < than
	}
	parent := make(map[uint64]float64, len(a))
	for _, x := range a {
		if _, ok := parent[x.seed]; !ok {
			parent[x.seed] = x.value
		}
	}
	paired := make(map[uint64]bool, len(b))
	for _, y := range b {
		x, ok := parent[y.seed]
		if !ok || paired[y.seed] {
			continue
		}
		paired[y.seed] = true
		c.pairs++
		if isBetter(y.value, x) {
			c.wins++
		}
	}
	if def.Exact {
		c.verdict = noWorse
		for _, x := range a {
			for _, y := range b {
				if x.seed == y.seed && x.value != y.value {
					c.verdict = worse
				}
			}
		}
		if c.pairs == 0 && median(av) != median(bv) {
			c.verdict = worse
		}
		return c
	}

	medA, medB := median(av), median(bv)
	q1a, q3a := quartiles(av)
	allBetter := len(av) > 0 && len(bv) > 0 && isBetter(worst(bv, def), best(av, def))
	worsening := relChange(medA, medB)
	if def.Better == "higher" {
		worsening = -worsening
	}
	c.claim = c.pairs >= 10 && c.wins*10 >= 9*c.pairs && math.Abs(medB-medA) > q3a-q1a && isBetter(medB, medA)
	switch {
	case math.Max(spread(av), spread(bv)) > def.Bound:
		c.verdict = unresolved
		if allBetter {
			c.verdict = better
		}
	case worsening > def.Bound:
		c.verdict = worse
	case c.claim:
		c.verdict = better
	default:
		c.verdict = noWorse
	}
	return c
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(median(xs))
}

// relChange is (b - a) / |a|, with a change away from 0 reading as
// infinitely large.
func relChange(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), b-a)
	}
	return (b - a) / math.Abs(a)
}

// best and worst return the best and worst reading in xs.
func best(xs []float64, def metricDef) float64 {
	if def.Better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func worst(xs []float64, def metricDef) float64 {
	if def.Better == "higher" {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}

// compareRecords judges every end-to-end metric on every workload both
// files ran untraced, in workload and metric order.
func compareRecords(a, b []record) []comparison {
	var out []comparison
	for _, w := range workloads {
		for _, def := range endToEnd {
			sa, sb := samplesOf(a, w.name, def.Name), samplesOf(b, w.name, def.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			c := judge(def, sa, sb)
			c.workload = w.name
			out = append(out, c)
		}
	}
	return out
}

func samplesOf(recs []record, workload, metric string) []sample {
	var out []sample
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, sample{r.Seed, v.Value})
		}
	}
	return out
}

// sameLength checks that every untraced run measured for the same time:
// rates and medians of runs of different lengths do not compare.
func sameLength(recs []record) error {
	var first *record
	for i, r := range recs {
		if r.Trace != 0 {
			continue
		}
		if first == nil {
			first = &recs[i]
		} else if r.Seconds != first.Seconds {
			return fmt.Errorf("runs of different lengths: %s seed %d measured %gs, %s seed %d %gs",
				first.Workload, first.Seed, first.Seconds, r.Workload, r.Seed, r.Seconds)
		}
	}
	return nil
}

// readRecords reads a JSON Lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain is `benchmark compare parent.jsonl change.jsonl`: it prints
// both sides' median, quartiles and run count and a verdict for every
// metric on every workload, and exits 1 when any verdict is worse or
// unresolved.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare parent.jsonl change.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := sameLength(append(slices.Clone(a), b...)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cs := compareRecords(a, b)
	if len(cs) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the files share no untraced workload runs")
		return 1
	}
	fmt.Fprintf(w, "%-16s %-12s %-7s %-36s %-36s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1 q3] n", "change median [q1 q3] n", "change", "wins", "verdict")
	code := 0
	for _, c := range cs {
		side := func(ss []sample) string {
			xs := values(ss)
			q1, q3 := quartiles(xs)
			return fmt.Sprintf("%.6g [%.6g %.6g] %d", median(xs), q1, q3, len(xs))
		}
		verdict := c.verdict
		if c.claim {
			verdict += " (claim holds)"
		}
		fmt.Fprintf(w, "%-16s %-12s %-7s %-36s %-36s %+7.2f%% %3d/%-2d  %s\n",
			c.workload, c.def.Name, c.def.Unit, side(c.a), side(c.b),
			100*relChange(median(values(c.a)), median(values(c.b))), c.wins, c.pairs, verdict)
		if c.verdict == worse || c.verdict == unresolved {
			code = 1
		}
	}
	return code
}
