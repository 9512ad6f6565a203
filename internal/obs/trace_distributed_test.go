package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Span-ID derivation is the whole coordination protocol between the two
// sides of a traced scan: IDs must be deterministic, never zero, and
// distinct across sides, ordinals, and the high-bit attempt salt the server
// folds in for redialled traces.
func TestDeriveSpanIDDistinct(t *testing.T) {
	const traceID = uint64(0xdeadbeefcafef00d)
	sides := []uint64{
		SpanSideClient,
		SpanSideServer,
		SpanSideServer | 1<<8,
		SpanSideServer | 2<<8,
		SpanSideServer | 3<<8,
	}
	seen := make(map[uint64]string)
	for _, side := range sides {
		for n := 0; n < 16; n++ {
			id := DeriveSpanID(traceID, side, n)
			if id == 0 {
				t.Fatalf("DeriveSpanID(%#x, %#x, %d) = 0", traceID, side, n)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("span id %#x collides: side=%#x n=%d and %s", id, side, n, prev)
			}
			seen[id] = "earlier"
			if again := DeriveSpanID(traceID, side, n); again != id {
				t.Fatalf("DeriveSpanID not deterministic: %#x then %#x", id, again)
			}
		}
	}
	// Different traces must not share span IDs either (same side/ordinal).
	if DeriveSpanID(1, SpanSideClient, 0) == DeriveSpanID(2, SpanSideClient, 0) {
		t.Fatal("distinct traces derived the same root span id")
	}
}

// EnableTrace flips a scan trace into distributed mode: spans get derived
// IDs parented under the root, lane spans recorded by AddSpan included, and
// BeginRoot takes the root ID itself.
func TestScanTraceDistributedIDs(t *testing.T) {
	const traceID, parent = uint64(0x1234), uint64(0x9999)
	tr := StartScan(1, "client", "lineitem", "l_tax", 8)
	if got := tr.EnableTrace(traceID, parent, SpanSideClient); got != DeriveSpanID(traceID, SpanSideClient, 0) {
		t.Fatalf("EnableTrace root = %#x", got)
	}
	root := tr.BeginRoot("scan")
	child := tr.Begin("request")
	tr.End(child, 0)
	tr.End(root, 0)
	lane := tr.AddSpan("lane", 0, 0, 0, 7, false)

	if tr.Spans[root].SpanID != tr.RootSpanID || tr.Spans[root].ParentID != parent {
		t.Fatalf("root span = %+v, want span id %#x parent %#x", tr.Spans[root], tr.RootSpanID, parent)
	}
	if tr.Spans[child].ParentID != tr.RootSpanID {
		t.Fatalf("child parent = %#x, want root %#x", tr.Spans[child].ParentID, tr.RootSpanID)
	}
	if tr.Spans[lane].ParentID != tr.RootSpanID {
		t.Fatalf("lane span = %+v, want parent root %#x", tr.Spans[lane], tr.RootSpanID)
	}
	if id := tr.Spans[lane].SpanID; id == 0 || id == tr.RootSpanID || id == tr.Spans[child].SpanID {
		t.Fatalf("lane span id %#x is zero or collides", id)
	}
}

// An untraced scan record must keep the untraced JSON shape: no span IDs, no
// trace fields — EnableTrace with a zero trace ID stays off.
func TestScanTraceUntracedKeepsLegacyShape(t *testing.T) {
	tr := StartScan(1, "client", "t", "c", 4)
	if got := tr.EnableTrace(0, 5, SpanSideClient); got != 0 {
		t.Fatalf("EnableTrace(0) = %#x, want 0", got)
	}
	tr.End(tr.Begin("accept"), 0)
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"trace_id", "span_id", "parent_id", "root_span_id"} {
		if bytes.Contains(b, []byte(field)) {
			t.Fatalf("untraced JSON leaks %q: %s", field, b)
		}
	}
}

// The tracer's report store and Assemble stitch both halves of a trace: the
// client's shipped spans plus every server scan that continued the trace —
// one synthesized "serve" root each — ordered by start time.
func TestTracerReportAndAssemble(t *testing.T) {
	const traceID = uint64(0xabc123)
	tracer := NewTracer(8)

	if tracer.Assemble(traceID) != nil {
		t.Fatal("Assemble of an unknown trace must be nil")
	}
	if tracer.Assemble(0) != nil {
		t.Fatal("Assemble(0) must be nil")
	}

	clientRoot := DeriveSpanID(traceID, SpanSideClient, 0)
	tracer.Report(traceID, []Span{
		{Name: "scan", Lane: -1, StartNS: 100, DurNS: 900, SpanID: clientRoot},
		{Name: "request", Lane: -1, StartNS: 110, DurNS: 20,
			SpanID: DeriveSpanID(traceID, SpanSideClient, 1), ParentID: clientRoot},
	})
	if got := tracer.Reported(traceID); len(got) != 2 {
		t.Fatalf("Reported = %d spans, want 2", len(got))
	}
	// A retried trailer appends rather than replacing.
	tracer.Report(traceID, []Span{{Name: "redial", Lane: -1, StartNS: 400, DurNS: 10,
		SpanID: DeriveSpanID(traceID, SpanSideClient, 2), ParentID: clientRoot}})
	if got := tracer.Reported(traceID); len(got) != 3 {
		t.Fatalf("after second report: %d spans, want 3", len(got))
	}

	// Two server attempts continuing the same trace (a redialled scan): each
	// gets its own side salt, so its own serve root at assembly.
	for attempt := uint64(1); attempt <= 2; attempt++ {
		st := StartScan(attempt, "server", "lineitem", "l_tax", 4)
		st.EnableTrace(traceID, clientRoot, SpanSideServer|attempt<<8)
		st.End(st.Begin("accept"), 3)
		tracer.Publish(st)
	}

	at := tracer.Assemble(traceID)
	if at == nil {
		t.Fatal("Assemble returned nil for a known trace")
	}
	if at.TraceID != traceID || at.ServerScans != 2 || at.ClientSpans != 3 {
		t.Fatalf("assembled = %+v, want 2 server scans / 3 client spans", at)
	}
	if at.Table != "lineitem" || at.Column != "l_tax" {
		t.Fatalf("assembled table = %s.%s", at.Table, at.Column)
	}
	serveRoots := map[uint64]bool{}
	ids := map[uint64]bool{0: true}
	for _, sp := range at.Spans {
		ids[sp.SpanID] = true
		if sp.Name == "serve" {
			if sp.Source != "server" || sp.ParentID != clientRoot {
				t.Fatalf("serve root %+v, want server-sourced child of %#x", sp, clientRoot)
			}
			serveRoots[sp.SpanID] = true
		}
	}
	if len(serveRoots) != 2 {
		t.Fatalf("%d distinct serve roots, want 2", len(serveRoots))
	}
	// Every span's parent must resolve inside the tree (or be the root's 0).
	for _, sp := range at.Spans {
		if !ids[sp.ParentID] {
			t.Fatalf("span %q parent %#x not in the tree", sp.Name, sp.ParentID)
		}
	}
	// Spans are ordered by start time.
	for i := 1; i < len(at.Spans); i++ {
		if at.Spans[i].StartNS < at.Spans[i-1].StartNS {
			t.Fatalf("spans out of order at %d: %d after %d", i, at.Spans[i].StartNS, at.Spans[i-1].StartNS)
		}
	}
	if at.EndNS < at.StartNS {
		t.Fatalf("assembled window [%d, %d] inverted", at.StartNS, at.EndNS)
	}
}

// The Chrome trace-event export must be valid JSON with the documented
// shape: process-name metadata for both sides, one "X" event per span, and
// the trace identity in otherData.
func TestWriteTraceEventsShape(t *testing.T) {
	const traceID = uint64(0x77aa)
	tracer := NewTracer(4)
	clientRoot := DeriveSpanID(traceID, SpanSideClient, 0)
	tracer.Report(traceID, []Span{{Name: "scan", Lane: -1, StartNS: 1000, DurNS: 5000, SpanID: clientRoot}})
	st := StartScan(1, "server", "t", "c", 4)
	st.EnableTrace(traceID, clientRoot, SpanSideServer)
	st.End(st.Begin("accept"), 0)
	tracer.Publish(st)

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, tracer.Assemble(traceID)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("tracez output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	var meta, slices int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if ev.TS == nil || ev.Dur == nil || *ev.TS < 0 || *ev.Dur < 0 {
				t.Fatalf("slice %q lacks a sane ts/dur: %+v", ev.Name, ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta < 2 || slices < 3 {
		t.Fatalf("%d metadata + %d slice events, want >=2 and >=3", meta, slices)
	}
	if doc.OtherData["trace_id"] != "00000000000077aa" {
		t.Fatalf("otherData trace_id = %q", doc.OtherData["trace_id"])
	}

	// A nil assembled trace still writes parseable (empty) JSON.
	buf.Reset()
	if err := WriteTraceEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("nil trace export: %s (err %v)", buf.Bytes(), err)
	}
}

// The report store is bounded per trace as well as per ring: a peer that
// replays a full trailer for one trace ID fills that trace's slot once and
// every later span is dropped.
func TestTracerReportCapsSpansPerTrace(t *testing.T) {
	tracer := NewTracer(8)
	const traceID = uint64(0xfeed)
	full := make([]Span, MaxReportSpans)
	for i := range full {
		full[i] = Span{Name: "stream", Lane: -1, StartNS: int64(i), DurNS: 1, SpanID: uint64(i + 1)}
	}
	for i := 0; i < 100; i++ {
		tracer.Report(traceID, full)
	}
	if got := len(tracer.Reported(traceID)); got != MaxReportSpans {
		t.Fatalf("after 100 full reports the slot holds %d spans, want %d", got, MaxReportSpans)
	}

	// Small reports accumulate up to the same bound, and a single oversized
	// one (no frame can carry it, but Report is an exported method) is cut.
	const small = uint64(0xbeef)
	for i := 0; i < 100; i++ {
		tracer.Report(small, full[:100])
	}
	if got := len(tracer.Reported(small)); got != MaxReportSpans {
		t.Fatalf("after 100 × 100 spans the slot holds %d, want %d", got, MaxReportSpans)
	}
	tracer.Report(0xcafe, append(full, full...))
	if got := len(tracer.Reported(0xcafe)); got != MaxReportSpans {
		t.Fatalf("oversized first report stored %d spans, want %d", got, MaxReportSpans)
	}
}
