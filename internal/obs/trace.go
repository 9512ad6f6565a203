package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Span is one timed phase of a scan: request decode, page streaming, one
// side-path lane, the fan-in merge, the catalog install. Spans carry both
// wall-clock nanoseconds (what the goroutines actually took) and simulated
// hardware cycles (what the modelled accelerator charged), so a trace shows
// exactly where the two accounts diverge.
type Span struct {
	Name string `json:"name"`
	// Lane is the side-path lane index for lane spans, -1 otherwise.
	Lane    int   `json:"lane"`
	StartNS int64 `json:"start_ns"` // unix nanoseconds
	DurNS   int64 `json:"dur_ns"`
	// HWCycles is the simulated accelerator cost attributed to this span
	// (per-lane binning cycles for lane spans; aggregation pass plus
	// histogram chain for the merge span; zero for wall-only spans).
	HWCycles int64 `json:"hw_cycles"`
	// Retired marks a lane span whose lane was removed by the supervisor;
	// its partial hardware accounting was discarded.
	Retired bool `json:"retired,omitempty"`
	// SpanID and ParentID place the span in a distributed trace tree. Both
	// are zero outside distributed tracing, so the legacy JSON shape is
	// unchanged for untraced scans.
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Source names the process that recorded the span ("client", "server");
	// filled in during cross-process assembly, empty inside one process.
	Source string `json:"source,omitempty"`
}

// ScanTrace is the per-scan trace record. It has a single-writer lifecycle:
// the serving goroutine mutates it while the scan runs and publishes it to
// the tracer's ring exactly once, after which it is immutable — readers only
// ever see published traces. The span slab is allocated once at Start (sized
// by the expected span count), never per page. All methods are nil-safe so
// an unwired tracer costs one pointer check per scan phase.
type ScanTrace struct {
	ID     uint64 `json:"id"`
	Table  string `json:"table"`
	Column string `json:"column,omitempty"`
	// StartNS is the scan's start in unix nanoseconds.
	StartNS int64 `json:"start_ns"`
	// WallNS is the scan's total wall-clock duration.
	WallNS int64 `json:"wall_ns"`
	// AccelCycles is the scan's simulated accelerator total (max lane
	// critical path + aggregation + histogram chain): the lane spans'
	// maximum HWCycles plus the merge span's HWCycles reproduce it.
	AccelCycles uint64 `json:"accel_cycles"`
	Refreshed   bool   `json:"refreshed"`
	Degraded    bool   `json:"degraded"`
	Err         string `json:"error,omitempty"`
	// TraceID links this scan into a distributed trace: the client
	// originates the ID, the server continues it from the wire. Zero for
	// untraced scans, which keeps the legacy JSON shape byte-identical.
	TraceID uint64 `json:"trace_id,omitempty"`
	// ParentSpanID is the remote span this scan's root parents under (the
	// client's root scan span, carried in the request's trace context).
	ParentSpanID uint64 `json:"parent_span_id,omitempty"`
	// RootSpanID is the span every locally recorded span parents under by
	// default; derived deterministically from TraceID and the side salt.
	RootSpanID uint64 `json:"root_span_id,omitempty"`
	Spans      []Span `json:"spans"`

	begin time.Time // monotonic anchor for Begin/End
	side  uint64    // span-ID derivation salt while tracing
}

// Span-ID derivation salts: one per process role, so the two sides of a
// scan can both number their spans 1..N without colliding in the tree. A
// side may OR extra identity into the salt's high bits (bits 8 and up) to
// separate repeated continuations of one trace.
const (
	SpanSideClient uint64 = 1
	SpanSideServer uint64 = 2
	SpanSideStream uint64 = 3
)

// NewTraceID originates a 64-bit distributed trace ID (never zero — zero is
// the "untraced" sentinel on the wire and in JSON).
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// DeriveSpanID maps (trace, side, ordinal) to a span ID via a splitmix64
// finalizer. Deterministic derivation means neither side needs to coordinate
// ID allocation with the other: the client and the server each hash their
// own ordinals under different salts and the tree still joins. The full
// 64-bit salt participates, so a side may fold extra identity into its high
// bits (the server mixes its local scan id in, giving each attempt of a
// redialled trace distinct span IDs). Ordinal 0 is the side's root span.
// Never returns zero.
func DeriveSpanID(traceID, side uint64, n int) uint64 {
	x := traceID ^ side*0x9e3779b97f4a7c15 ^ (uint64(n)+1)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// EnableTrace joins this scan to a distributed trace: subsequent Begin and
// AddSpan calls assign span IDs derived from traceID under the given side
// salt, parented under the scan's root span. Returns the root span ID (zero
// when t is nil or traceID is zero — tracing stays off and the record keeps
// its legacy shape).
func (t *ScanTrace) EnableTrace(traceID, parentSpanID, side uint64) uint64 {
	if t == nil || traceID == 0 {
		return 0
	}
	t.TraceID = traceID
	t.ParentSpanID = parentSpanID
	t.side = side
	t.RootSpanID = DeriveSpanID(traceID, side, 0)
	return t.RootSpanID
}

// Begin opens a wall-clock span and returns its index for End. Nil-safe.
func (t *ScanTrace) Begin(name string) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, Span{
		Name:    name,
		Lane:    -1,
		StartNS: t.StartNS + int64(time.Since(t.begin)),
	})
	idx := len(t.Spans) - 1
	t.assignID(idx)
	return idx
}

// BeginRoot opens the trace's root span: it takes the root span ID itself
// and parents under the remote ParentSpanID instead of the local root. The
// side that originates a trace records its root explicitly (the spans ship
// across the wire); the continuing side's root is synthesized at assembly.
func (t *ScanTrace) BeginRoot(name string) int {
	idx := t.Begin(name)
	if idx >= 0 && t.TraceID != 0 {
		t.Spans[idx].SpanID = t.RootSpanID
		t.Spans[idx].ParentID = t.ParentSpanID
	}
	return idx
}

// assignID gives span idx its derived ID and default root parent when the
// trace is distributed; a no-op (all zeros) otherwise.
func (t *ScanTrace) assignID(idx int) {
	if t.TraceID == 0 {
		return
	}
	sp := &t.Spans[idx]
	sp.SpanID = DeriveSpanID(t.TraceID, t.side, idx+1)
	sp.ParentID = t.RootSpanID
}

// SpanIDAt returns the distributed span ID of span idx (zero when the trace
// is not distributed or idx is out of range). Nil-safe.
func (t *ScanTrace) SpanIDAt(idx int) uint64 {
	if t == nil || idx < 0 || idx >= len(t.Spans) {
		return 0
	}
	return t.Spans[idx].SpanID
}

// Reparent moves span idx under parentID — how lane spans nest under the
// streaming phase instead of the root. Nil-safe, no-op outside tracing.
func (t *ScanTrace) Reparent(idx int, parentID uint64) {
	if t == nil || idx < 0 || idx >= len(t.Spans) || t.TraceID == 0 || parentID == 0 {
		return
	}
	t.Spans[idx].ParentID = parentID
}

// End closes the span opened by Begin, attributing hw simulated cycles.
func (t *ScanTrace) End(idx int, hwCycles int64) {
	if t == nil || idx < 0 || idx >= len(t.Spans) {
		return
	}
	sp := &t.Spans[idx]
	sp.DurNS = t.StartNS + int64(time.Since(t.begin)) - sp.StartNS
	sp.HWCycles = hwCycles
}

// AddSpan records a span whose endpoints were captured elsewhere (lane
// goroutines record their own start/end into atomics; the serving goroutine
// copies them here after joining the lane). Zero start/end fall back to the
// trace's own window so a lane that never ran still renders.
func (t *ScanTrace) AddSpan(name string, lane int, startNS, endNS, hwCycles int64, retired bool) int {
	if t == nil {
		return -1
	}
	now := t.StartNS + int64(time.Since(t.begin))
	if startNS == 0 {
		startNS = t.StartNS
	}
	if endNS == 0 || endNS < startNS {
		endNS = now
	}
	t.Spans = append(t.Spans, Span{
		Name:     name,
		Lane:     lane,
		StartNS:  startNS,
		DurNS:    endNS - startNS,
		HWCycles: hwCycles,
		Retired:  retired,
	})
	idx := len(t.Spans) - 1
	t.assignID(idx)
	return idx
}

// Tracer keeps the most recent published scan traces in a fixed ring, plus
// a bounded store of client-reported span sets for cross-process assembly.
// Nil tracers hand out nil traces, so tracing disables to pointer checks.
type Tracer struct {
	mu      sync.Mutex
	ring    []*ScanTrace
	next    int
	total   uint64
	reports []reportEntry
	rnext   int
}

// reportEntry is one client-shipped span set, keyed by trace ID.
type reportEntry struct {
	traceID uint64
	spans   []Span
}

// DefaultTraceRing is how many recent scans a tracer retains by default.
const DefaultTraceRing = 64

// DefaultReportRing is how many client span reports a tracer retains.
const DefaultReportRing = 64

// MaxReportSpans bounds the client spans stored per trace ID. It is also the
// most one trailer frame may carry (server.MaxTraceReportSpans), so a single
// honest report is never cut and a replayed one cannot grow its slot.
const MaxReportSpans = 4096

// NewTracer returns a tracer retaining the last capacity published traces
// (capacity <= 0 means DefaultTraceRing).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &Tracer{
		ring:    make([]*ScanTrace, capacity),
		reports: make([]reportEntry, DefaultReportRing),
	}
}

// StartScanTrace opens a scan trace record outside any tracer — the client
// side records spans this way even when it has no local ring to publish to,
// because the spans' real destination is the trailer frame. spanCap sizes
// the span slab (expected span count); the slab grows if the estimate is
// short, but a correct estimate means one allocation per scan.
func StartScanTrace(id uint64, table, column string, spanCap int) *ScanTrace {
	if spanCap < 4 {
		spanCap = 4
	}
	now := time.Now()
	return &ScanTrace{
		ID:      id,
		Table:   table,
		Column:  column,
		StartNS: now.UnixNano(),
		Spans:   make([]Span, 0, spanCap),
		begin:   now,
	}
}

// Start opens a trace for one scan. spanCap sizes the span slab (expected
// span count: lanes + a few fixed phases); the slab grows if the estimate is
// short, but a correct estimate means one allocation per scan.
func (tr *Tracer) Start(id uint64, table, column string, spanCap int) *ScanTrace {
	if tr == nil {
		return nil
	}
	return StartScanTrace(id, table, column, spanCap)
}

// Publish finalises the trace's wall clock and makes it visible to readers.
// The caller must not mutate t afterwards.
func (tr *Tracer) Publish(t *ScanTrace) {
	if tr == nil || t == nil {
		return
	}
	t.WallNS = int64(time.Since(t.begin))
	tr.mu.Lock()
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.total++
	tr.mu.Unlock()
}

// Total returns how many traces have ever been published.
func (tr *Tracer) Total() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// Recent returns up to n published traces, newest first.
func (tr *Tracer) Recent(n int) []*ScanTrace {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n > len(tr.ring) {
		n = len(tr.ring)
	}
	out := make([]*ScanTrace, 0, n)
	for i := 0; i < len(tr.ring) && len(out) < n; i++ {
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		if t := tr.ring[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Report stores a client-shipped span set for later assembly. A second
// report for the same trace appends (one logical scan is still one report,
// but the store tolerates retries of the trailer) up to MaxReportSpans per
// trace; spans past that are dropped. The store is a bounded ring of bounded
// entries: old reports are evicted, never accumulated. Nil-safe, fail-open.
func (tr *Tracer) Report(traceID uint64, spans []Span) {
	if tr == nil || traceID == 0 || len(spans) == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.reports) == 0 {
		tr.reports = make([]reportEntry, DefaultReportRing)
	}
	for i := range tr.reports {
		if e := &tr.reports[i]; e.traceID == traceID {
			if room := MaxReportSpans - len(e.spans); len(spans) > room {
				spans = spans[:room]
			}
			e.spans = append(e.spans, spans...)
			return
		}
	}
	if len(spans) > MaxReportSpans {
		spans = spans[:MaxReportSpans]
	}
	tr.reports[tr.rnext] = reportEntry{traceID: traceID, spans: spans}
	tr.rnext = (tr.rnext + 1) % len(tr.reports)
}

// Reported returns the client-shipped spans stored for traceID, nil if none.
func (tr *Tracer) Reported(traceID uint64) []Span {
	if tr == nil || traceID == 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.reports {
		if tr.reports[i].traceID == traceID {
			return tr.reports[i].spans
		}
	}
	return nil
}

// TracesFor returns every published scan trace belonging to traceID, oldest
// first. A redialled scan legitimately yields several: each server-side
// attempt is its own ScanTrace continuing the same distributed trace.
func (tr *Tracer) TracesFor(traceID uint64) []*ScanTrace {
	if tr == nil || traceID == 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*ScanTrace
	for i := 0; i < len(tr.ring); i++ {
		idx := (tr.next + i) % len(tr.ring) // oldest first
		if t := tr.ring[idx]; t != nil && t.TraceID == traceID {
			out = append(out, t)
		}
	}
	return out
}

// AssembledTrace is the cross-process view of one distributed trace: the
// client's reported spans and every server-side scan trace that continued
// the same trace ID, stitched into a single tree via span/parent IDs.
type AssembledTrace struct {
	TraceID uint64 `json:"trace_id"`
	Table   string `json:"table,omitempty"`
	Column  string `json:"column,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// ServerScans counts the server-side scan traces folded in (>1 when the
	// client redialled and the resume was served as a fresh scan).
	ServerScans int `json:"server_scans"`
	// ClientSpans counts spans the client shipped back over the trailer.
	ClientSpans int    `json:"client_spans"`
	Spans       []Span `json:"spans"`
}

// Assemble stitches everything known about traceID into one span tree:
// client-reported spans (Source "client") plus, for each server scan trace,
// a synthesized "serve" root span parented under the client's root and the
// scan's recorded spans beneath it (Source "server"). Spans are ordered by
// start time, parents before children on ties. Returns nil when the tracer
// holds nothing for traceID.
func (tr *Tracer) Assemble(traceID uint64) *AssembledTrace {
	if tr == nil || traceID == 0 {
		return nil
	}
	reported := tr.Reported(traceID)
	scans := tr.TracesFor(traceID)
	if len(reported) == 0 && len(scans) == 0 {
		return nil
	}
	at := &AssembledTrace{TraceID: traceID, ClientSpans: len(reported), ServerScans: len(scans)}
	for _, sp := range reported {
		sp.Source = "client"
		at.Spans = append(at.Spans, sp)
	}
	for _, t := range scans {
		at.Table, at.Column = t.Table, t.Column
		at.Spans = append(at.Spans, Span{
			Name:     "serve",
			Lane:     -1,
			StartNS:  t.StartNS,
			DurNS:    t.WallNS,
			SpanID:   t.RootSpanID,
			ParentID: t.ParentSpanID,
			Source:   "server",
		})
		for _, sp := range t.Spans {
			sp.Source = "server"
			at.Spans = append(at.Spans, sp)
		}
	}
	sort.SliceStable(at.Spans, func(i, j int) bool {
		a, b := at.Spans[i], at.Spans[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.DurNS > b.DurNS // parents (longer) first on ties
	})
	at.StartNS = at.Spans[0].StartNS
	for _, sp := range at.Spans {
		if end := sp.StartNS + sp.DurNS; end > at.EndNS {
			at.EndNS = end
		}
	}
	return at
}
