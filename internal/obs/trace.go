package obs

import (
	"math/rand/v2"
	"sort"
	"sync"

	"streamhist/internal/sketch"
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
	// open marks a span Begin opened and End has not closed yet; publishing
	// the record closes it at the record's end.
	open bool
	// SpanID and ParentID place the span in a distributed trace tree. Both
	// are zero outside distributed tracing, so the legacy JSON shape is
	// unchanged for untraced scans.
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Source names the process that recorded the span ("client", "server");
	// filled in during cross-process assembly, empty inside one process.
	Source string `json:"source,omitempty"`
}

// Span-ID derivation salts: one per process role, so the two sides of a
// scan can both number their spans 1..N without colliding in the tree. A
// side may OR extra identity into the salt's high bits (bits 8 and up) to
// separate repeated continuations of one trace.
const (
	SpanSideClient uint64 = 1
	SpanSideServer uint64 = 2
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

// Tracer is the one store of published scan records. Publish numbers each
// record, decides its tail-sampling verdict once, and pushes the same pointer
// into two retention views: the recent ring keeps every scan and evicts
// strictly by age (/scans, TracesFor, Assemble, the benchmark's layer read);
// the tail ring keeps every anomalous scan and one healthy scan in
// TailSample, so a long quiet stretch cannot evict the interesting tail
// (/events, debug bundles). Publish also raises the registers of two
// HyperLogLog sketches with the record's table and client, which the
// timeline drains each tick — distinct-entity counts see every scan, retained
// or not, however many a tick brings. Client-reported span sets for
// cross-process assembly live in a third ring. One mutex guards all of it. A
// nil tracer no-ops everywhere.
type Tracer struct {
	mu      sync.Mutex
	seq     uint64 // records published, and the sequence source
	healthy uint64 // healthy records published, the tail sampler's count
	recent  Ring[*ScanRecord]
	tail    Ring[*ScanRecord]
	reports Ring[reportEntry]

	tables, clients *sketch.HLL
}

// reportEntry is one client-shipped span set, keyed by trace ID.
type reportEntry struct {
	traceID uint64
	spans   []Span
}

const (
	// DefaultTraceRing is how many recent scans a tracer retains by default.
	DefaultTraceRing = 64
	// TailRing is how many tail-sampled records a tracer retains.
	TailRing = 1024
	// TailSample keeps one in this many healthy records in the tail ring
	// (anomalous records are always kept).
	TailSample = 4
	// DefaultReportRing is how many client span reports a tracer retains.
	DefaultReportRing = 64
	// EntityPrecision is the register-count exponent of the distinct-table
	// and distinct-client sketches: 1 Ki registers, ≈3 % standard error.
	EntityPrecision = 10
)

// MaxReportSpans bounds the client spans stored per trace ID. It is also the
// most one trailer frame may carry (server.MaxTraceReportSpans), so a single
// honest report is never cut and a replayed one cannot grow its slot.
const MaxReportSpans = 4096

// NewTracer returns a tracer retaining the last capacity published records
// in its recent ring (capacity <= 0 means DefaultTraceRing).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &Tracer{
		recent:  NewRing[*ScanRecord](capacity),
		tail:    NewRing[*ScanRecord](TailRing),
		reports: NewRing[reportEntry](DefaultReportRing),
		tables:  sketch.NewHLL(EntityPrecision),
		clients: sketch.NewHLL(EntityPrecision),
	}
}

// Publish makes a record (*Obs).Publish finished — its one caller outside
// tests — visible to readers: it assigns Seq before either view can show the
// record, so gaps among the tail ring's records are exactly what sampling
// dropped. It allocates nothing. The caller must not mutate rec afterwards.
func (tr *Tracer) Publish(rec *ScanRecord) {
	if tr == nil || rec == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.seq++
	rec.Seq = tr.seq
	tr.recent.Push(rec)
	if !rec.Anomalous {
		tr.healthy++
	}
	if rec.Anomalous || tr.healthy%TailSample == 1 {
		tr.tail.Push(rec)
	}
	if rec.Table != "" {
		tr.tables.Push(0, entityKey(rec.Table))
	}
	if rec.Client != "" {
		tr.clients.Push(0, entityKey(rec.Client))
	}
}

// entityKey folds a table or client name into the value an HLL register
// update takes (64-bit FNV-1a; the sketch mixes it again), without the
// allocation hash/fnv's interface would cost on the publish path.
func entityKey(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// Recent returns up to n published records, newest first.
func (tr *Tracer) Recent(n int) []*ScanRecord {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.recent.Newest(n)
}

// Tail returns up to n records the tail sampling retained, newest first.
func (tr *Tracer) Tail(n int) []*ScanRecord {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.tail.Newest(n)
}

// DrainEntities hands over the distinct-table and distinct-client sketches
// of every record published since the previous drain, and starts empty ones.
// A nil tracer returns nil sketches.
func (tr *Tracer) DrainEntities() (tables, clients *sketch.HLL) {
	if tr == nil {
		return nil, nil
	}
	freshTables, freshClients := sketch.NewHLL(EntityPrecision), sketch.NewHLL(EntityPrecision)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tables, clients = tr.tables, tr.clients
	tr.tables, tr.clients = freshTables, freshClients
	return tables, clients
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
	if e := tr.report(traceID); e != nil {
		if room := MaxReportSpans - len(e.spans); len(spans) > room {
			spans = spans[:room]
		}
		e.spans = append(e.spans, spans...)
		return
	}
	if len(spans) > MaxReportSpans {
		spans = spans[:MaxReportSpans]
	}
	tr.reports.Push(reportEntry{traceID: traceID, spans: spans})
}

// report finds traceID's stored span set, nil if none. Caller holds tr.mu.
func (tr *Tracer) report(traceID uint64) *reportEntry {
	for i := 0; i < tr.reports.Len(); i++ {
		if e := tr.reports.At(i); e.traceID == traceID {
			return e
		}
	}
	return nil
}

// Reported returns the client-shipped spans stored for traceID, nil if none.
func (tr *Tracer) Reported(traceID uint64) []Span {
	if tr == nil || traceID == 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if e := tr.report(traceID); e != nil {
		return e.spans
	}
	return nil
}

// TracesFor returns every published record belonging to traceID, oldest
// first. A redialled scan legitimately yields several: each server-side
// attempt is its own record continuing the same distributed trace.
func (tr *Tracer) TracesFor(traceID uint64) []*ScanRecord {
	if tr == nil || traceID == 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*ScanRecord
	for i := 0; i < tr.recent.Len(); i++ {
		if rec := *tr.recent.At(i); rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

// AssembledTrace is the cross-process view of one distributed trace: the
// client's reported spans and every server-side scan record that continued
// the same trace ID, stitched into a single tree via span/parent IDs.
type AssembledTrace struct {
	TraceID uint64 `json:"trace_id"`
	Table   string `json:"table,omitempty"`
	Column  string `json:"column,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// ServerScans counts the server-side scan records folded in (>1 when the
	// client redialled and the resume was served as a fresh scan).
	ServerScans int `json:"server_scans"`
	// ClientSpans counts spans the client shipped back over the trailer.
	ClientSpans int    `json:"client_spans"`
	Spans       []Span `json:"spans"`
}

// Assemble stitches everything known about traceID into one span tree:
// client-reported spans (Source "client") plus, for each server scan record,
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
