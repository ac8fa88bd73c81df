package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
)

// countingSampler returns a sampler that reports a monotonically rising
// counter (+delta per sample call) and records how often it ran.
func countingSampler(delta uint64, calls *int) func(*Snapshot) {
	var total uint64
	return func(s *Snapshot) {
		*calls++
		total += delta
		s.Retries = total
		s.L3QueueDepth = *calls // gauge: reported as-is
	}
}

func TestProbeWindowMath(t *testing.T) {
	p := NewProbe(Config{Interval: 100})
	calls := 0
	p.Bind(countingSampler(7, &calls))

	p.Tick(50) // inside window 0: nothing closes
	if calls != 0 {
		t.Fatalf("sampler ran %d times before any window closed", calls)
	}
	p.Tick(100) // closes [0,100)
	p.Tick(100) // same cycle again: no further close
	if calls != 1 {
		t.Fatalf("sampler ran %d times after one window close, want 1", calls)
	}
	p.Tick(350) // closes [100,200) and [200,300)
	if calls != 3 {
		t.Fatalf("sampler ran %d times, want 3", calls)
	}

	s := p.Finish(350) // partial tail [300,350)
	if calls != 4 {
		t.Fatalf("sampler ran %d times after Finish, want 4", calls)
	}
	if got := len(s.Samples); got != 4 {
		t.Fatalf("series has %d samples, want 4", got)
	}
	for i, sm := range s.Samples {
		if sm.Window != i {
			t.Fatalf("sample %d has window %d", i, sm.Window)
		}
		if sm.Retries != 7 {
			t.Fatalf("sample %d delta = %d, want 7 (cumulative values must be differenced)", i, sm.Retries)
		}
		if sm.L3QueueDepth != i+1 {
			t.Fatalf("sample %d gauge = %d, want %d (gauges are not differenced)", i, sm.L3QueueDepth, i+1)
		}
	}
	tail := s.Samples[3]
	if tail.Start != 300 || tail.End != 350 {
		t.Fatalf("tail covers [%d,%d), want [300,350)", tail.Start, tail.End)
	}

	// Finish is idempotent.
	if again := p.Finish(350); len(again.Samples) != 4 || calls != 4 {
		t.Fatalf("second Finish changed the series: %d samples, %d sampler calls", len(again.Samples), calls)
	}
}

func TestProbeIdleWindowsHaveNoGaps(t *testing.T) {
	p := NewProbe(Config{Interval: 10})
	calls := 0
	p.Bind(countingSampler(0, &calls))
	p.Tick(55) // a long idle stretch crossing five boundaries at once
	s := p.Finish(55)
	if got := len(s.Samples); got != 6 {
		t.Fatalf("series has %d samples, want 6 (5 full + partial tail)", got)
	}
	for i, sm := range s.Samples {
		if int(sm.Start) != i*10 {
			t.Fatalf("sample %d starts at %d: the series has gaps", i, sm.Start)
		}
		if sm.Retries != 0 {
			t.Fatalf("idle sample %d reports %d retries", i, sm.Retries)
		}
	}
}

func TestProbeFinishOnBoundaryEmitsNoEmptyTail(t *testing.T) {
	p := NewProbe(Config{Interval: 100})
	p.Bind(func(*Snapshot) {})
	s := p.Finish(200)
	if got := len(s.Samples); got != 2 {
		t.Fatalf("series has %d samples, want exactly 2 (no zero-width tail)", got)
	}
}

func TestDefaultIntervalApplied(t *testing.T) {
	p := NewProbe(Config{})
	if p.Interval() != DefaultInterval {
		t.Fatalf("Interval() = %d, want DefaultInterval %d", p.Interval(), DefaultInterval)
	}
}

// writeExampleTrace exercises every record type on a TraceWriter.
func writeExampleTrace(tw *TraceWriter) {
	tw.DemandCombine(10, 0, 42, coherence.Read, coherence.Outcome{Source: coherence.SourceL3, L3Valid: true})
	tw.WBCombine(20, 1, 43, coherence.DirtyWB, "to-l3", true)
	tw.Victim(30, 2, 44, coherence.Modified, l2.VictimQueued, false, false)
	tw.Counters(&Sample{Window: 0, Start: 0, End: 100, Retries: 5, SwitchActive: true, AddrRingUtil: 0.25})
}

func TestTraceWriterJSONLLinesParse(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, JSONL)
	writeExampleTrace(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != 4 {
		t.Fatalf("Events() = %d, want 4", tw.Events())
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, field := range []string{"t", "ev"} {
			if _, ok := rec[field]; !ok {
				t.Fatalf("line %d lacks %q: %s", lines, field, sc.Text())
			}
		}
	}
	if lines != 4 {
		t.Fatalf("trace has %d lines, want 4", lines)
	}
}

func TestTraceWriterChromeIsValidJSONArray(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, ChromeTrace)
	writeExampleTrace(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a valid JSON array: %v\n%s", err, buf.String())
	}
	// 3 instant events + 9 counter tracks per sample.
	if len(events) != 12 {
		t.Fatalf("chrome trace has %d events, want 12", len(events))
	}
	phases := map[string]int{}
	for i, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("event %d lacks ts: %v", i, ev)
		}
		if _, ok := ev["name"]; !ok {
			t.Fatalf("event %d lacks name: %v", i, ev)
		}
	}
	if phases["i"] != 3 || phases["C"] != 9 {
		t.Fatalf("phase mix = %v, want 3 instant + 9 counter", phases)
	}
}

func TestTraceWriterEmptyChromeTraceCloses(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, ChromeTrace)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty trace decodes to %d events", len(events))
	}
}

func TestFormatForPath(t *testing.T) {
	cases := map[string]Format{
		"out.jsonl":     JSONL,
		"dir/run.jsonl": JSONL,
		"out.json":      ChromeTrace,
		"trace":         ChromeTrace,
		"x.jsonl.gz":    ChromeTrace,
		"retries.trace": ChromeTrace,
		"l.jsonl.jsonl": JSONL,
		"short.j":       ChromeTrace,
	}
	for path, want := range cases {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestNilSamplerProbe covers a probe that was never bound to a system:
// windows still close, with all-zero deltas.
func TestNilSamplerProbe(t *testing.T) {
	p := NewProbe(Config{Interval: config.Cycles(10)})
	p.Tick(25)
	s := p.Finish(25)
	if len(s.Samples) != 3 {
		t.Fatalf("series has %d samples, want 3", len(s.Samples))
	}
}
