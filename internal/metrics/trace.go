package metrics

import (
	"bufio"
	"io"
	"strconv"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/observe"
)

// Format selects the event-trace file format.
type Format int

const (
	// JSONL writes one self-describing JSON object per line — easy to
	// grep, stream and post-process.
	JSONL Format = iota
	// ChromeTrace writes the Chrome trace_event JSON array (instant
	// events per transaction plus counter tracks per sampling window),
	// loadable directly in Perfetto (ui.perfetto.dev) or
	// chrome://tracing. Simulated cycles are reported as microseconds,
	// the trace format's native unit.
	ChromeTrace
)

// FormatForPath picks the format by file extension: ".jsonl" selects
// JSONL, anything else the Chrome trace_event format.
func FormatForPath(path string) Format {
	if len(path) >= 6 && path[len(path)-6:] == ".jsonl" {
		return JSONL
	}
	return ChromeTrace
}

// TraceWriter emits the structured per-transaction event stream. It is
// an observer of three commit points: demand and write-back combined
// responses and victim decisions. All encoding uses strconv appends
// into a reused buffer — no fmt, no reflection — so tracing costs file
// I/O, not allocation churn. Event payload strings (transaction kinds,
// dispositions, states) must come from fixed sets without characters
// needing JSON escaping.
type TraceWriter struct {
	observe.Base
	w      *bufio.Writer
	format Format
	buf    []byte
	events uint64
	err    error
}

// NewTraceWriter starts a trace on w. For ChromeTrace the JSON array is
// opened immediately; Close finishes it.
func NewTraceWriter(w io.Writer, format Format) *TraceWriter {
	t := &TraceWriter{w: bufio.NewWriterSize(w, 1<<16), format: format, buf: make([]byte, 0, 256)}
	if format == ChromeTrace {
		_, t.err = t.w.WriteString("[\n")
	}
	return t
}

// Events returns the number of trace records written, counter samples
// included.
func (t *TraceWriter) Events() uint64 { return t.events }

// Err returns the first write error encountered, if any.
func (t *TraceWriter) Err() error { return t.err }

// Close flushes buffered output and, for ChromeTrace, closes the JSON
// array. It does not close the underlying writer.
func (t *TraceWriter) Close() error {
	if t.format == ChromeTrace && t.err == nil {
		_, t.err = t.w.WriteString("\n]\n")
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// DemandCombine records a demand transaction's combined response.
func (t *TraceWriter) DemandCombine(now config.Cycles, slice int, key uint64, kind coherence.TxnKind, out coherence.Outcome) {
	b := t.begin(now, "demand", slice)
	b = t.strField(b, "kind", kind.String())
	b = t.strField(b, "src", out.Source.String())
	b = t.boolField(b, "l3_valid", out.L3Valid)
	b = t.boolField(b, "shared", out.SharedElsewhere)
	t.end(b, key)
}

// WBCombine records a write-back transaction's combined response and
// disposition (to-l3, squash-l3, squash-peer, snarf, retry, cancelled,
// snarf-fallback, snarf-retry).
func (t *TraceWriter) WBCombine(now config.Cycles, slice int, key uint64, kind coherence.TxnKind, disposition string, snarfable bool) {
	b := t.begin(now, "wb", slice)
	b = t.strField(b, "kind", kind.String())
	b = t.strField(b, "out", disposition)
	b = t.boolField(b, "snarfable", snarfable)
	t.end(b, key)
}

// Victim records the write-back policy's decision for an evicted line.
func (t *TraceWriter) Victim(now config.Cycles, slice int, key uint64, st coherence.State, action l2.VictimAction, inL3, _ bool) {
	b := t.begin(now, "victim", slice)
	b = t.strField(b, "state", st.String())
	b = t.strField(b, "action", action.String())
	b = t.boolField(b, "in_l3", inL3)
	t.end(b, key)
}

// Counters emits one closed interval sample. In ChromeTrace these are
// "C"-phase counter tracks, which Perfetto plots as time series — the
// retry-storm and switch-toggle view; in JSONL they are "sample" lines.
func (t *TraceWriter) Counters(s *Sample) {
	if t.err != nil {
		return
	}
	if t.format == JSONL {
		b := t.buf[:0]
		b = append(b, `{"t":`...)
		b = strconv.AppendInt(b, int64(s.End), 10)
		b = append(b, `,"ev":"sample","window":`...)
		b = strconv.AppendInt(b, int64(s.Window), 10)
		b = appendUintField(b, "retries", s.Retries)
		b = appendUintField(b, "wb_retried", s.WBRetried)
		b = appendUintField(b, "wb_issued", s.WBIssued)
		b = append(b, `,"switch_active":`...)
		b = strconv.AppendBool(b, s.SwitchActive)
		b = appendUintField(b, "l3_queue_peak", uint64(s.L3QueuePeak))
		b = appendUintField(b, "mshr_occupancy", uint64(s.MSHROccupancy))
		b = append(b, "}\n"...)
		t.buf = b
		t.events++
		t.write(b)
		return
	}
	t.counter(s.End, "retries/window", float64(s.Retries))
	t.counter(s.End, "wb retries/window", float64(s.WBRetried))
	t.counter(s.End, "wb issues/window", float64(s.WBIssued))
	t.counter(s.End, "retry switch", b2f(s.SwitchActive))
	t.counter(s.End, "addr ring util", s.AddrRingUtil)
	t.counter(s.End, "data ring util", s.DataRingUtil)
	t.counter(s.End, "l3 queue peak", float64(s.L3QueuePeak))
	t.counter(s.End, "mshr occupancy", float64(s.MSHROccupancy))
	t.counter(s.End, "wb queue occupancy", float64(s.WBQueueOccupancy))
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// begin opens an event record through the common prefix; the returned
// buffer is continued by the field appenders and finished by end.
func (t *TraceWriter) begin(now config.Cycles, ev string, l2 int) []byte {
	b := t.buf[:0]
	if t.format == JSONL {
		b = append(b, `{"t":`...)
		b = strconv.AppendInt(b, int64(now), 10)
		b = append(b, `,"ev":"`...)
		b = append(b, ev...)
		b = append(b, `","l2":`...)
		b = strconv.AppendInt(b, int64(l2), 10)
	} else {
		if t.events > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"name":"`...)
		b = append(b, ev...)
		b = append(b, `","ph":"i","s":"t","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(l2), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, int64(now), 10)
		b = append(b, `,"args":{`...)
	}
	return b
}

// end closes an event record (appending the line key) and writes it.
func (t *TraceWriter) end(b []byte, key uint64) {
	if t.format == JSONL {
		b = append(b, `,"key":`...)
		b = strconv.AppendUint(b, key, 10)
		b = append(b, "}\n"...)
	} else {
		b = append(b, `,"key":`...)
		b = strconv.AppendUint(b, key, 10)
		b = append(b, "}}"...)
	}
	t.buf = b
	t.events++
	t.write(b)
}

// strField appends ,"name":"value". For ChromeTrace the first args
// field has no leading comma.
func (t *TraceWriter) strField(b []byte, name, value string) []byte {
	b = t.sep(b)
	b = append(b, '"')
	b = append(b, name...)
	b = append(b, `":"`...)
	b = append(b, value...)
	b = append(b, '"')
	return b
}

func (t *TraceWriter) boolField(b []byte, name string, value bool) []byte {
	b = t.sep(b)
	b = append(b, '"')
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendBool(b, value)
}

// sep writes the field separator; inside a ChromeTrace args object the
// first field follows the opening brace directly.
func (t *TraceWriter) sep(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] == '{' {
		return b
	}
	return append(b, ',')
}

func appendUintField(b []byte, name string, v uint64) []byte {
	b = append(b, `,"`...)
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendUint(b, v, 10)
}

// counter emits one ChromeTrace counter event.
func (t *TraceWriter) counter(ts config.Cycles, name string, v float64) {
	b := t.buf[:0]
	if t.events > 0 {
		b = append(b, ",\n"...)
	}
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","ph":"C","pid":0,"ts":`...)
	b = strconv.AppendInt(b, int64(ts), 10)
	b = append(b, `,"args":{"value":`...)
	b = strconv.AppendFloat(b, v, 'g', 6, 64)
	b = append(b, "}}"...)
	t.buf = b
	t.events++
	t.write(b)
}

func (t *TraceWriter) write(b []byte) {
	if t.err != nil {
		return
	}
	_, t.err = t.w.Write(b)
}
