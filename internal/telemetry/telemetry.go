// Package telemetry is a dependency-free metric registry for the
// serving layers: counters, gauges and fixed-bucket histograms backed
// by atomics, rendered in the Prometheus text exposition format
// (version 0.0.4) for GET /metrics.
//
// Design constraints, in order:
//
//   - Zero-alloc, lock-free hot path. Inc/Add/Observe are single atomic
//     operations on pre-registered instruments; only registration and
//     scraping take locks. The simulation engine's own counters stay
//     plain struct fields (internal/system); this package instruments
//     the *service* around it.
//   - Nil-safe everywhere. Every method on every instrument (and on the
//     Registry itself) no-ops on a nil receiver, so a component can be
//     wired for telemetry unconditionally and run detached at the cost
//     of one nil check — the same zero-cost-when-detached discipline as
//     the simulator's observers (DESIGN.md §11).
//   - No dependencies beyond the standard library, and no global state:
//     a Registry is an explicit value, so tests and multiple daemons
//     never share counters by accident.
//
// Scrapes reuse an internal buffer, so a steady-state scrape performs
// zero heap allocations (pinned by TestScrapeAllocs).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing uint64. The zero value is
// ready to use; Registry.Counter additionally exposes it on /metrics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an int64 that can go up and down. The zero value is ready
// to use; Registry.Gauge additionally exposes it on /metrics.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (which may be negative). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one. No-op on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. No-op on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Histogram counts observations into fixed buckets (cumulative
// rendering with the +Inf bucket is done at scrape time). The zero
// value is NOT usable — buckets are fixed at construction
// (NewHistogram or Registry.Histogram).
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	les    []string        // bounds pre-rendered for le="...", so scrapes don't format floats
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomicFloat
}

// NewHistogram returns a detached histogram with the given strictly
// increasing upper bounds (the implicit +Inf bucket is added).
func NewHistogram(bounds []float64) *Histogram {
	checkBuckets(bounds)
	les := make([]string, len(bounds))
	for i, bound := range bounds {
		les[i] = strconv.FormatFloat(bound, 'g', -1, 64)
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		les:    les,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation. Lock-free: one binary search plus
// two atomic adds, no allocation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v (Prometheus buckets are
	// inclusive upper bounds); everything past the last bound lands in
	// the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// atomicFloat accumulates a float64 with compare-and-swap on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 {
	return math.Float64frombits(f.bits.Load())
}

// SecondsBuckets are default latency buckets for request/job
// histograms: 500µs to 60s, roughly exponential.
var SecondsBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// --- registry ---

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// child is one labeled instrument within a family. Exactly one of the
// instrument fields is set, matching the family's kind.
type child struct {
	labels string // pre-rendered `name="value",...` pairs (no braces)
	c      *Counter
	g      *Gauge
	f      func() float64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children []*child          // insertion order, for stable rendering
	index    map[string]*child // keyed by rendered label pairs
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; create with New. A nil *Registry is
// safe: every registration method returns a nil (detached, no-op)
// instrument.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	scratch  []byte // reused scrape buffer: steady-state scrapes do not allocate
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns (creating if needed) the family for name, panicking on
// a redefinition with a different kind, help, label set or buckets —
// metric identity is a programming-time contract.
func (r *Registry) family(name, help string, k kind, labelNames []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labelNames {
		mustValidLabelName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || f.help != help || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: metric %q redefined inconsistently", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       k,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		index:      make(map[string]*child),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// childFor returns (creating if needed) the family's child for the
// rendered label pairs.
func (f *family) childFor(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	var key string
	if len(labelValues) > 0 {
		b := make([]byte, 0, 64)
		for i, v := range labelValues {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, f.labelNames[i]...)
			b = append(b, '=', '"')
			b = appendEscapedLabelValue(b, v)
			b = append(b, '"')
		}
		key = string(b)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.index[key]; ok {
		return ch
	}
	ch := &child{labels: key}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		ch.h = NewHistogram(f.buckets)
	}
	f.children = append(f.children, ch)
	f.index[key] = ch
	return ch
}

// Counter registers (or returns the existing) unlabeled counter.
// Returns nil — a detached, no-op counter — on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).childFor(nil).c
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).childFor(nil).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (under the registry lock — fn must be fast and must not scrape).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.index[""]; ok {
		panic(fmt.Sprintf("telemetry: gauge func %q registered twice", name))
	}
	ch := &child{f: fn}
	f.children = append(f.children, ch)
	f.index[""] = ch
}

// Histogram registers (or returns the existing) unlabeled histogram
// with the given strictly increasing upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkBuckets(buckets)
	return r.family(name, help, kindHistogram, nil, buckets).childFor(nil).h
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ fam *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, kindCounter, labelNames, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Nil-safe: a nil vec returns a nil (no-op) counter.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.childFor(labelValues).c
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ fam *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	checkBuckets(buckets)
	return &HistogramVec{fam: r.family(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.childFor(labelValues).h
}

// --- rendering ---

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format. The internal buffer is reused
// across scrapes, so a steady-state scrape allocates nothing; the
// registry lock is held until the write completes, which serializes
// concurrent scrapes (the buffer would otherwise be recycled under the
// first scrape's Write). Nil-safe: a nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) (int, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.scratch[:0]
	for _, f := range r.families {
		b = f.render(b)
	}
	r.scratch = b
	return w.Write(b)
}

func (f *family) render(b []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) == 0 {
		return b
	}
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, f.help)
	b = append(b, '\n')
	b = append(b, "# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.kind.String()...)
	b = append(b, '\n')
	for _, ch := range f.children {
		switch f.kind {
		case kindCounter:
			b = appendSeries(b, f.name, "", ch.labels, "")
			b = strconv.AppendUint(b, ch.c.Value(), 10)
			b = append(b, '\n')
		case kindGauge:
			b = appendSeries(b, f.name, "", ch.labels, "")
			b = strconv.AppendInt(b, ch.g.Value(), 10)
			b = append(b, '\n')
		case kindGaugeFunc:
			b = appendSeries(b, f.name, "", ch.labels, "")
			b = appendFloat(b, ch.f())
			b = append(b, '\n')
		case kindHistogram:
			b = ch.renderHistogram(b, f.name)
		}
	}
	return b
}

// renderHistogram emits the cumulative bucket series, the +Inf bucket,
// and the _sum/_count pair.
func (ch *child) renderHistogram(b []byte, name string) []byte {
	h := ch.h
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		b = appendSeries(b, name, "_bucket", ch.labels, h.les[i])
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b = appendSeries(b, name, "_bucket", ch.labels, "+Inf")
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	b = appendSeries(b, name, "_sum", ch.labels, "")
	b = appendFloat(b, h.Sum())
	b = append(b, '\n')
	b = appendSeries(b, name, "_count", ch.labels, "")
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	return b
}

// appendSeries renders `name suffix{labels,le="le"} ` up to and
// including the trailing space before the value. le == "" omits the le
// label (non-bucket series).
func appendSeries(b []byte, name, suffix, labels, le string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" || le != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if le != "" {
			if labels != "" {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, le...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	return b
}

func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscapedLabelValue escapes backslash, double-quote and newline
// per the exposition format.
func appendEscapedLabelValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendEscapedHelp escapes backslash and newline (quotes are legal in
// HELP text).
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// --- validation ---

func mustValidName(s string) {
	if !validName(s, true) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", s))
	}
}

func mustValidLabelName(s string) {
	if !validName(s, false) || s == "le" {
		panic(fmt.Sprintf("telemetry: invalid label name %q", s))
	}
}

// validName checks [a-zA-Z_:][a-zA-Z0-9_:]* (colons only in metric
// names, never label names).
func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func checkBuckets(bounds []float64) {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram bounds must be finite (+Inf is implicit)")
		}
		if i > 0 && bounds[i-1] >= b {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
