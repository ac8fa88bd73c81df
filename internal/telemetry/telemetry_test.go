package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// --- a strict exposition-format parser, used to round-trip scrapes ---

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

type parsedFamily struct {
	name    string
	help    string
	typ     string
	samples []sample
}

// parseExposition is a deliberately strict parser for the subset of the
// Prometheus text format this package emits: every family must have
// HELP then TYPE then at least one sample, sample names must match the
// family (allowing _bucket/_sum/_count for histograms), label syntax
// and escapes must be exact, and no series may repeat.
func parseExposition(t *testing.T, text string) []parsedFamily {
	t.Helper()
	var fams []parsedFamily
	var cur *parsedFamily
	seen := make(map[string]bool) // duplicate-series detection
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "" {
		t.Fatalf("exposition must end with a newline")
	}
	lines = lines[:len(lines)-1]
	for _, line := range lines {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line: %q", line)
			}
			if cur != nil && len(cur.samples) == 0 {
				t.Fatalf("family %q has no samples", cur.name)
			}
			fams = append(fams, parsedFamily{name: name, help: unescapeHelp(t, help)})
			cur = &fams[len(fams)-1]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || cur == nil || cur.name != name || cur.typ != "" {
				t.Fatalf("TYPE line out of order: %q", line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q", typ)
			}
			cur.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		if cur == nil || cur.typ == "" {
			t.Fatalf("sample before HELP/TYPE: %q", line)
		}
		s := parseSample(t, line)
		base := s.name
		if cur.typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(s.name, suf); ok && b == cur.name {
					base = b
					break
				}
			}
		}
		if base != cur.name {
			t.Fatalf("sample %q does not belong to family %q", s.name, cur.name)
		}
		key := s.name + "|" + renderSorted(s.labels)
		if seen[key] {
			t.Fatalf("duplicate series %q", key)
		}
		seen[key] = true
		cur.samples = append(cur.samples, s)
	}
	if cur != nil && len(cur.samples) == 0 {
		t.Fatalf("family %q has no samples", cur.name)
	}
	for _, f := range fams {
		if f.typ == "histogram" {
			checkHistogramFamily(t, f)
		}
	}
	return fams
}

func parseSample(t *testing.T, line string) sample {
	t.Helper()
	s := sample{labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.name = line[:i]
	if !validName(s.name, true) {
		t.Fatalf("invalid metric name %q", s.name)
	}
	if i < len(line) && line[i] == '{' {
		i++ // past '{'
		for line[i] != '}' {
			j := i
			for line[j] != '=' {
				j++
			}
			lname := line[i:j]
			if !validName(lname, false) {
				t.Fatalf("invalid label name %q in %q", lname, line)
			}
			if line[j+1] != '"' {
				t.Fatalf("label value must be quoted: %q", line)
			}
			val, next := unescapeLabelValue(t, line, j+2)
			if _, dup := s.labels[lname]; dup {
				t.Fatalf("duplicate label %q in %q", lname, line)
			}
			s.labels[lname] = val
			i = next
			if line[i] == ',' {
				i++
			} else if line[i] != '}' {
				t.Fatalf("malformed label block in %q", line)
			}
		}
		i++ // past '}'
	}
	if i >= len(line) || line[i] != ' ' {
		t.Fatalf("missing value separator in %q", line)
	}
	raw := line[i+1:]
	v, err := parseValue(raw)
	if err != nil {
		t.Fatalf("bad value %q in %q: %v", raw, line, err)
	}
	s.value = v
	return s
}

func parseValue(raw string) (float64, error) {
	switch raw {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(raw, 64)
}

// unescapeLabelValue reads a quoted label value starting at the byte
// after the opening quote; returns the value and the index after the
// closing quote.
func unescapeLabelValue(t *testing.T, line string, start int) (string, int) {
	t.Helper()
	var b strings.Builder
	i := start
	for {
		if i >= len(line) {
			t.Fatalf("unterminated label value in %q", line)
		}
		switch line[i] {
		case '"':
			return b.String(), i + 1
		case '\\':
			i++
			switch line[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				t.Fatalf("invalid escape \\%c in %q", line[i], line)
			}
		case '\n':
			t.Fatalf("raw newline in label value: %q", line)
		default:
			b.WriteByte(line[i])
		}
		i++
	}
}

func unescapeHelp(t *testing.T, s string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			default:
				t.Fatalf("invalid HELP escape \\%c", s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func renderSorted(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// checkHistogramFamily asserts that, per label set, the le bounds are
// strictly increasing and end at +Inf, the cumulative bucket counts are
// non-decreasing, and _count equals the +Inf bucket.
func checkHistogramFamily(t *testing.T, f parsedFamily) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
		count  float64
		gotCnt bool
	}
	groups := make(map[string]*series)
	group := func(labels map[string]string) *series {
		rest := make(map[string]string)
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := renderSorted(rest)
		if groups[key] == nil {
			groups[key] = &series{}
		}
		return groups[key]
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket sample without le", f.name)
			}
			v, err := parseValue(le)
			if err != nil {
				t.Fatalf("%s: bad le %q", f.name, le)
			}
			g := group(s.labels)
			g.les = append(g.les, v)
			g.counts = append(g.counts, s.value)
		case f.name + "_count":
			g := group(s.labels)
			g.count = s.value
			g.gotCnt = true
		case f.name + "_sum":
		default:
			t.Fatalf("%s: unexpected histogram sample %q", f.name, s.name)
		}
	}
	for key, g := range groups {
		if len(g.les) == 0 {
			t.Fatalf("%s{%s}: no buckets", f.name, key)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i-1] >= g.les[i] {
				t.Fatalf("%s{%s}: le bounds not strictly increasing: %v", f.name, key, g.les)
			}
			if g.counts[i-1] > g.counts[i] {
				t.Fatalf("%s{%s}: cumulative counts decrease: %v", f.name, key, g.counts)
			}
		}
		if !math.IsInf(g.les[len(g.les)-1], 1) {
			t.Fatalf("%s{%s}: last bucket is not +Inf: %v", f.name, key, g.les)
		}
		if !g.gotCnt {
			t.Fatalf("%s{%s}: missing _count", f.name, key)
		}
		if g.count != g.counts[len(g.counts)-1] {
			t.Fatalf("%s{%s}: _count %v != +Inf bucket %v", f.name, key, g.count, g.counts[len(g.counts)-1])
		}
	}
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// --- tests ---

// TestRoundTrip builds one registry with every instrument kind,
// adversarial label values included, and re-parses the scrape with the
// strict parser above.
func TestRoundTrip(t *testing.T) {
	r := New()
	r.Counter("jobs_total", "Total jobs.").Add(42)
	r.Gauge("queue_depth", "Jobs queued.").Set(-3)
	r.GaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	rv := r.CounterVec("http_requests_total", "Requests by route/code.", "route", "code")
	rv.With("GET /v1/jobs/{id}", "200").Add(7)
	rv.With("GET /v1/jobs/{id}", "404").Inc()
	rv.With(`we"ird\route`+"\n", "500").Inc()
	h := r.Histogram("run_seconds", "Run wall time.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	hv := r.HistogramVec("req_seconds", "Request latency.", []float64{0.01, 0.1}, "route")
	hv.With("POST /v1/jobs").Observe(0.02)

	text := scrape(t, r)
	fams := parseExposition(t, text)
	byName := make(map[string]parsedFamily)
	for _, f := range fams {
		byName[f.name] = f
	}

	if f := byName["jobs_total"]; f.typ != "counter" || f.samples[0].value != 42 {
		t.Fatalf("jobs_total wrong: %+v", f)
	}
	if f := byName["queue_depth"]; f.typ != "gauge" || f.samples[0].value != -3 {
		t.Fatalf("queue_depth wrong: %+v", f)
	}
	if f := byName["uptime_seconds"]; f.typ != "gauge" || f.samples[0].value != 12.5 {
		t.Fatalf("uptime_seconds wrong: %+v", f)
	}
	reqs := byName["http_requests_total"]
	if len(reqs.samples) != 3 {
		t.Fatalf("want 3 http_requests_total series, got %+v", reqs.samples)
	}
	found := false
	for _, s := range reqs.samples {
		if s.labels["route"] == `we"ird\route`+"\n" && s.labels["code"] == "500" {
			found = true
			if s.value != 1 {
				t.Fatalf("escaped-label series value %v", s.value)
			}
		}
	}
	if !found {
		t.Fatalf("escaped label value did not round-trip: %+v", reqs.samples)
	}
	// Histogram: 4 observations, cumulative 1/2/3/4 across 0.1/1/10/+Inf.
	hist := byName["run_seconds"]
	if hist.typ != "histogram" {
		t.Fatalf("run_seconds type %q", hist.typ)
	}
	wantCum := []float64{1, 2, 3, 4}
	i := 0
	var sum float64
	for _, s := range hist.samples {
		switch s.name {
		case "run_seconds_bucket":
			if s.value != wantCum[i] {
				t.Fatalf("bucket %d: want %v got %v", i, wantCum[i], s.value)
			}
			i++
		case "run_seconds_sum":
			sum = s.value
		}
	}
	if want := 0.05 + 0.5 + 5 + 50; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("run_seconds_sum: want %v got %v", want, sum)
	}
	if h.Count() != 4 {
		t.Fatalf("Count: want 4 got %d", h.Count())
	}
}

// TestScrapeStable verifies two scrapes with no writes in between are
// byte-identical (rendering is deterministic, registration-ordered).
func TestScrapeStable(t *testing.T) {
	r := New()
	r.Counter("a_total", "A.").Inc()
	r.CounterVec("b_total", "B.", "x").With("1").Inc()
	r.Histogram("c_seconds", "C.", []float64{1, 2}).Observe(1.5)
	if s1, s2 := scrape(t, r), scrape(t, r); s1 != s2 {
		t.Fatalf("scrapes differ:\n%s\n---\n%s", s1, s2)
	}
}

// TestConcurrentScrape hammers every instrument kind from many
// goroutines while scraping; run under -race this is the data-race
// check, and every intermediate scrape must still parse strictly.
func TestConcurrentScrape(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "Ops.")
	g := r.Gauge("inflight", "In flight.")
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	vec := r.CounterVec("routed_total", "Routed.", "route")

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := fmt.Sprintf("r%d", w%3)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%200) / 1000.0)
				vec.With(route).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				parseExposition(t, scrape(t, r))
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	fams := parseExposition(t, scrape(t, r))
	for _, f := range fams {
		if f.name == "ops_total" && f.samples[0].value != writers*perWriter {
			t.Fatalf("ops_total: want %d got %v", writers*perWriter, f.samples[0].value)
		}
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count: want %d got %d", writers*perWriter, h.Count())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge should settle at 0, got %d", g.Value())
	}
}

// chunkedWriter copies its input a few bytes at a time, yielding the
// scheduler between chunks, so a scrape that releases the registry lock
// before Write completes would have its shared render buffer recycled
// (and mutated) by a concurrent scrape mid-copy.
type chunkedWriter struct{ buf bytes.Buffer }

func (w *chunkedWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := 16
		if n > len(p) {
			n = len(p)
		}
		w.buf.Write(p[:n])
		total += n
		p = p[n:]
		runtime.Gosched()
	}
	return total, nil
}

// TestConcurrentScrapers pins the scrape-vs-scrape guarantee:
// WritePrometheus holds the registry lock across the Write, so
// overlapping scrapes (HA Prometheus, concurrent curls) each get a
// complete, well-formed exposition instead of racing on the reused
// render buffer. Run under -race this is the regression check for the
// buffer-recycling data race.
func TestConcurrentScrapers(t *testing.T) {
	r := New()
	r.Counter("ops_total", "Ops.").Add(12345)
	r.Gauge("inflight", "In flight.").Set(-7)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%100) / 1000)
	}
	vec := r.CounterVec("routed_total", "Routed.", "route")
	for _, route := range []string{"r0", "r1", "r2"} {
		vec.With(route).Inc()
	}
	want := scrape(t, r)

	const scrapers = 4
	const perScraper = 50
	outs := make([][]string, scrapers)
	var wg sync.WaitGroup
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perScraper; i++ {
				var w chunkedWriter
				r.WritePrometheus(&w) // cannot fail: buffer writes
				outs[s] = append(outs[s], w.buf.String())
			}
		}(s)
	}
	wg.Wait()

	for _, scrapes := range outs {
		for _, text := range scrapes {
			if text != want {
				t.Fatalf("concurrent scrape corrupted:\n%s\n--- want ---\n%s", text, want)
			}
		}
	}
}

// TestScrapeAllocs pins the steady-state scrape to zero heap
// allocations: the registry reuses its render buffer.
func TestScrapeAllocs(t *testing.T) {
	r := New()
	r.Counter("a_total", "A.").Add(123456)
	r.Gauge("b", "B.").Set(-9)
	r.GaugeFunc("c", "C.", func() float64 { return 3.25 })
	h := r.Histogram("d_seconds", "D.", SecondsBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) / 50)
	}
	v := r.CounterVec("e_total", "E.", "k")
	v.With("x").Inc()
	v.With("y").Inc()

	r.WritePrometheus(io.Discard) // warm the scratch buffer
	allocs := testing.AllocsPerRun(50, func() {
		r.WritePrometheus(io.Discard)
	})
	if allocs != 0 {
		t.Fatalf("scrape allocates: %v allocs/op", allocs)
	}
}

// TestObserveAllocs pins the hot-path write side to zero allocations.
func TestObserveAllocs(t *testing.T) {
	r := New()
	c := r.Counter("a_total", "A.")
	g := r.Gauge("b", "B.")
	h := r.Histogram("c_seconds", "C.", SecondsBuckets)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Add(2)
		g.Dec()
		h.Observe(0.42)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/op", allocs)
	}
}

// TestNilSafety exercises every method on nil instruments and a nil
// registry — the detached-telemetry contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "X.")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("y", "Y.")
	g.Set(1)
	g.Inc()
	g.Dec()
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	r.GaugeFunc("z", "Z.", func() float64 { return 1 })
	h := r.Histogram("w_seconds", "W.", []float64{1})
	h.Observe(2)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	cv := r.CounterVec("v_total", "V.", "l")
	cv.With("a").Inc()
	hv := r.HistogramVec("t_seconds", "T.", []float64{1}, "l")
	hv.With("a").Observe(1)
	if n, err := r.WritePrometheus(io.Discard); n != 0 || err != nil {
		t.Fatalf("nil registry wrote %d bytes, err %v", n, err)
	}
}

// TestRedefinitionPanics pins the identity contract: same name with a
// different kind/help/labels must panic at registration.
func TestRedefinitionPanics(t *testing.T) {
	r := New()
	r.Counter("a_total", "A.")
	mustPanic(t, func() { r.Gauge("a_total", "A.") })
	mustPanic(t, func() { r.Counter("a_total", "Different help.") })
	mustPanic(t, func() { r.CounterVec("a_total", "A.", "l") })
	mustPanic(t, func() { r.Counter("bad name", "B.") })
	mustPanic(t, func() { r.CounterVec("b_total", "B.", "le") })
	mustPanic(t, func() { r.Histogram("h", "H.", []float64{2, 1}) })
	mustPanic(t, func() { r.Histogram("h2", "H.", nil) })
	mustPanic(t, func() { r.CounterVec("c_total", "C.", "l").With("a", "b") })
	// Same identity twice is fine and returns the same instrument.
	if r.Counter("a_total", "A.") == nil {
		t.Fatal("re-registration returned nil")
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
