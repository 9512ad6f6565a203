package obs

import (
	"fmt"
	"log/slog"
	"time"
)

// ScanRecord is the one account of one scan: identity, window, volume,
// outcome, fault accounting and span timings in a single row. It is the
// paper's thesis applied to the monitoring plane — the scan already computed
// every one of these numbers while it moved the data, so it fills the record
// in as it runs and hands it over once, at its tail, never per page or value.
//
// The lifecycle is single-writer: the goroutine running the scan mutates the
// record until (*Obs).Publish finalises it, before any reader can see it.
// From then on it is immutable and every view — /scans, /events, trace
// assembly, debug bundles, the log line, the latency exemplar — reads the
// same pointer, so they agree by construction. The span slab is allocated
// once at StartScan. All methods are nil-safe, so an unwired scan costs one
// pointer check per phase.
type ScanRecord struct {
	// Seq counts records published to the tracer, including those its tail
	// sampling chose not to retain, so gaps among /events rows quantify
	// exactly what sampling dropped. Zero without a tracer.
	Seq uint64 `json:"seq"`
	// ID is the scan's process-wide identifier — the same number in the slog
	// "scan" attribute and in the scan's fault-injection fork.
	ID uint64 `json:"id"`
	// TraceID links the scan into a distributed trace: the client originates
	// it, the server continues it from the wire. Zero for untraced scans,
	// whose JSON carries no trace or span identity at all.
	TraceID uint64 `json:"trace_id,omitempty"`
	// ParentSpanID is the remote span this scan's root parents under (the
	// client's root scan span, carried in the request's trace context).
	ParentSpanID uint64 `json:"parent_span_id,omitempty"`
	// RootSpanID is the span every locally recorded span parents under by
	// default; derived deterministically from TraceID and the side salt.
	RootSpanID uint64 `json:"root_span_id,omitempty"`
	// Source is the layer that ran the scan: "server" or "client".
	Source string `json:"source,omitempty"`
	Table  string `json:"table"`
	Column string `json:"column,omitempty"`
	// Client is the peer address of a served scan.
	Client string `json:"client,omitempty"`

	// StartNS is the scan's start in unix nanoseconds; WallNS its total
	// wall-clock duration, stamped once at publish.
	StartNS int64 `json:"start_ns"`
	WallNS  int64 `json:"wall_ns"`

	Pages uint32 `json:"pages"`
	Bytes uint64 `json:"bytes"`
	Rows  uint64 `json:"rows"`
	// AccelCycles is the simulated accelerator total (max lane critical path
	// + aggregation + histogram chain): the lane spans' maximum HWCycles plus
	// the merge span's HWCycles reproduce it.
	AccelCycles uint64 `json:"accel_cycles"`

	Refreshed bool   `json:"refreshed"`
	Degraded  bool   `json:"degraded"`
	Resumed   bool   `json:"resumed,omitempty"`
	Err       string `json:"error,omitempty"`

	QuarantinedPages uint32 `json:"quarantined_pages,omitempty"`
	LanesRetired     uint32 `json:"lanes_retired,omitempty"`
	SkippedTuples    uint64 `json:"skipped_tuples,omitempty"`

	Spans []Span `json:"spans"`

	// Anomalous is the tail-sampling verdict: anything that failed, degraded,
	// resumed or shed work is retained unconditionally by the tracer's tail
	// ring; healthy scans are 1-in-TailSample sampled.
	Anomalous bool `json:"anomalous"`

	begin time.Time // monotonic anchor for Begin/End
	side  uint64    // span-ID derivation salt while tracing
}

// StartScan opens the record of one scan. spanCap sizes the span slab
// (expected span count: lanes plus a few fixed phases); the slab grows if the
// estimate is short, but a correct estimate means one allocation per scan.
func StartScan(id uint64, source, table, column string, spanCap int) *ScanRecord {
	now := time.Now()
	return &ScanRecord{
		ID:      id,
		Source:  source,
		Table:   table,
		Column:  column,
		StartNS: now.UnixNano(),
		Spans:   make([]Span, 0, max(spanCap, 4)),
		begin:   now,
	}
}

// now is the record's clock: unix nanoseconds advanced monotonically from
// StartNS, so span windows never run backwards across a wall-clock step.
func (r *ScanRecord) now() int64 { return r.StartNS + int64(time.Since(r.begin)) }

// EnableTrace joins this scan to a distributed trace: subsequent Begin and
// AddSpan calls assign span IDs derived from traceID under the given side
// salt, parented under the scan's root span. Returns the root span ID (zero
// when r is nil or traceID is zero — tracing stays off and the record keeps
// its untraced shape).
func (r *ScanRecord) EnableTrace(traceID, parentSpanID, side uint64) uint64 {
	if r == nil || traceID == 0 {
		return 0
	}
	r.TraceID = traceID
	r.ParentSpanID = parentSpanID
	r.side = side
	r.RootSpanID = DeriveSpanID(traceID, side, 0)
	return r.RootSpanID
}

// Begin opens a wall-clock span and returns its index for End. A span still
// open when the record is published is closed at the record's end. Nil-safe.
func (r *ScanRecord) Begin(name string) int {
	if r == nil {
		return -1
	}
	r.Spans = append(r.Spans, Span{Name: name, Lane: -1, StartNS: r.now(), open: true})
	idx := len(r.Spans) - 1
	r.assignID(idx)
	return idx
}

// BeginRoot opens the trace's root span: it takes the root span ID itself
// and parents under the remote ParentSpanID instead of the local root. The
// side that originates a trace records its root explicitly (the spans ship
// across the wire); the continuing side's root is synthesized at assembly.
func (r *ScanRecord) BeginRoot(name string) int {
	idx := r.Begin(name)
	if idx >= 0 && r.TraceID != 0 {
		r.Spans[idx].SpanID = r.RootSpanID
		r.Spans[idx].ParentID = r.ParentSpanID
	}
	return idx
}

// assignID gives span idx its derived ID and default root parent when the
// trace is distributed; a no-op (all zeros) otherwise.
func (r *ScanRecord) assignID(idx int) {
	if r.TraceID == 0 {
		return
	}
	sp := &r.Spans[idx]
	sp.SpanID = DeriveSpanID(r.TraceID, r.side, idx+1)
	sp.ParentID = r.RootSpanID
}

// End closes the span opened by Begin, attributing hw simulated cycles.
func (r *ScanRecord) End(idx int, hwCycles int64) {
	if r == nil || idx < 0 || idx >= len(r.Spans) {
		return
	}
	sp := &r.Spans[idx]
	sp.DurNS = r.now() - sp.StartNS
	sp.HWCycles = hwCycles
	sp.open = false
}

// AddSpan records a span whose endpoints were captured elsewhere (lane
// goroutines record their own start/end into atomics; the serving goroutine
// copies them here after joining the lane). Zero start/end fall back to the
// record's own window so a lane that never ran still renders.
func (r *ScanRecord) AddSpan(name string, lane int, startNS, endNS, hwCycles int64, retired bool) int {
	if r == nil {
		return -1
	}
	if startNS == 0 {
		startNS = r.StartNS
	}
	if endNS == 0 || endNS < startNS {
		endNS = r.now()
	}
	r.Spans = append(r.Spans, Span{
		Name:     name,
		Lane:     lane,
		StartNS:  startNS,
		DurNS:    endNS - startNS,
		HWCycles: hwCycles,
		Retired:  retired,
	})
	idx := len(r.Spans) - 1
	r.assignID(idx)
	return idx
}

// seal finalises the record for Publish: the wall clock is read a single
// time, and every span a failing stage left open ends where the record ends —
// the traces of failed scans are the ones worth reading, and a zero-length
// span would hide exactly where the time went.
func (r *ScanRecord) seal() {
	end := r.now()
	r.WallNS = end - r.StartNS
	for i := range r.Spans {
		if sp := &r.Spans[i]; sp.open {
			sp.DurNS = end - sp.StartNS
			sp.open = false
		}
	}
	r.Anomalous = r.Err != "" || r.Degraded || r.Resumed ||
		r.QuarantinedPages > 0 || r.LanesRetired > 0 || r.SkippedTuples > 0
}

// LogValue renders the record as the attribute group of its one log line:
// "scan" and "dur" are the same ID and WallNS every other view reports, and
// "trace_id" is printed the way `histcli trace` takes it.
func (r *ScanRecord) LogValue() slog.Value {
	attrs := []slog.Attr{
		slog.Uint64("scan", r.ID), slog.String("source", r.Source),
		slog.String("table", r.Table), slog.String("column", r.Column),
		slog.Uint64("pages", uint64(r.Pages)), slog.Uint64("bytes", r.Bytes),
		slog.Uint64("rows", r.Rows), slog.Bool("refreshed", r.Refreshed),
		slog.Bool("degraded", r.Degraded), slog.Uint64("accel_cycles", r.AccelCycles),
		slog.Duration("dur", time.Duration(r.WallNS)),
	}
	if r.TraceID != 0 {
		attrs = append(attrs, slog.String("trace_id", fmt.Sprintf("%016x", r.TraceID)))
	}
	if r.Err != "" {
		attrs = append(attrs, slog.String("err", r.Err))
	}
	return slog.GroupValue(attrs...)
}
