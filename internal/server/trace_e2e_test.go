package server_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/server"
)

// A clean traced scan assembles into one tree: the client's root span holds
// everything, the server's synthesized "serve" root parents under it, and
// every span's parent resolves inside the tree.
func TestTracedScanAssembly(t *testing.T) {
	const rows = 2000
	want := storageBytes(t, rows)

	srv := server.New(server.Config{})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	c.EnableTracing()
	var got bytes.Buffer
	if _, err := c.Scan("synthetic", "c1", &got); err != nil {
		t.Fatalf("traced scan: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("tracing changed the delivered bytes")
	}

	traceID := c.LastTraceID()
	if traceID == 0 {
		t.Fatal("traced scan originated no trace id")
	}
	// The trailer frame is written fire-and-forget after the summary; give
	// the serving goroutine a moment to store it.
	at := waitAssembled(t, srv.Obs().Tracer(), traceID, func(at *obs.AssembledTrace) bool {
		return at.ClientSpans > 0
	})

	if at.ServerScans != 1 {
		t.Fatalf("clean scan assembled %d server scans, want 1", at.ServerScans)
	}
	clientRoot := obs.DeriveSpanID(traceID, obs.SpanSideClient, 0)
	ids := map[uint64]bool{0: true}
	var names []string
	for _, sp := range at.Spans {
		ids[sp.SpanID] = true
		names = append(names, sp.Source+"/"+sp.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"client/scan", "client/request", "client/stream", "server/serve", "server/stream"} {
		if !strings.Contains(joined, want) {
			t.Errorf("assembled trace lacks %q: %s", want, joined)
		}
	}
	for _, sp := range at.Spans {
		if sp.Name == "scan" && sp.Source == "client" {
			if sp.SpanID != clientRoot || sp.ParentID != 0 {
				t.Fatalf("client root %+v, want span %#x parent 0", sp, clientRoot)
			}
		}
		if sp.Name == "serve" && sp.ParentID != clientRoot {
			t.Fatalf("serve root parents under %#x, want client root %#x", sp.ParentID, clientRoot)
		}
		if !ids[sp.ParentID] {
			t.Fatalf("span %s/%s parent %#x not in the tree", sp.Source, sp.Name, sp.ParentID)
		}
	}
}

// A traced scan interrupted by connection resets stays ONE trace: every
// redialled server attempt continues the same trace ID as its own serve
// block, and the client's redial/backoff spans appear in the tree.
func TestTracedScanRedialAssembly(t *testing.T) {
	const rows = 5000
	want := storageBytes(t, rows)

	srv := server.New(server.Config{
		Faults:        faults.New(5, faults.Profile{faults.ConnReset: 0.25}),
		PagesPerFrame: 2,
	})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	c.EnableTracing()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "c1", &got)
	if err != nil {
		t.Fatalf("traced scan under resets: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("delivered bytes differ from storage after traced resumptions")
	}
	if sum.Retries == 0 {
		t.Fatal("a 25% per-frame reset rate caused no retries")
	}

	traceID := c.LastTraceID()
	at := waitAssembled(t, srv.Obs().Tracer(), traceID, func(at *obs.AssembledTrace) bool {
		return at.ClientSpans > 0
	})
	if at.ServerScans < 2 {
		t.Fatalf("redialled trace assembled %d server scans, want >= 2", at.ServerScans)
	}
	var sawRedial, sawBackoff bool
	serveIDs := map[uint64]bool{}
	for _, sp := range at.Spans {
		switch {
		case sp.Source == "client" && sp.Name == "redial":
			sawRedial = true
		case sp.Source == "client" && sp.Name == "backoff":
			sawBackoff = true
		case sp.Name == "serve":
			serveIDs[sp.SpanID] = true
		}
	}
	if !sawRedial || !sawBackoff {
		t.Fatalf("client spans lack redial/backoff (redial=%v backoff=%v)", sawRedial, sawBackoff)
	}
	// Each attempt's serve root must be distinct — the side salt folds the
	// server's local scan id in precisely so redials don't collide.
	if len(serveIDs) != at.ServerScans {
		t.Fatalf("%d distinct serve roots for %d server scans", len(serveIDs), at.ServerScans)
	}
	// The whole thing exports as Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, at); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("trace export lacks traceEvents")
	}
}

// waitAssembled polls the tracer until the trace assembles with the client
// trailer folded in (it arrives after the scan summary, asynchronously from
// the test's point of view).
func waitAssembled(t *testing.T, tr *obs.Tracer, traceID uint64, ready func(*obs.AssembledTrace) bool) *obs.AssembledTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if at := tr.Assemble(traceID); at != nil && ready(at) {
			return at
		}
		if time.Now().After(deadline) {
			at := tr.Assemble(traceID)
			t.Fatalf("trace %016x did not assemble in time: %+v", traceID, at)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A malformed trailer is dropped without a reply — replying would desync
// the one-way frame — and without killing the connection: the next request
// on the same conn is served normally, and the drop is counted.
func TestMalformedTraceReportDroppedWithoutReply(t *testing.T) {
	srv := server.New(server.Config{})
	if err := srv.Register(testRelation(100)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	defer cc.Close()

	var buf bytes.Buffer
	if err := server.WriteFrame(&buf, server.FrameTraceReport, []byte("not a trace report")); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteFrame(&buf, server.FrameList, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	cc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := server.ReadFrame(cc)
	if err != nil {
		t.Fatalf("reading reply after bad trailer: %v", err)
	}
	// The first — only — reply must answer the LIST, proving the bad
	// trailer got no response of its own.
	if f.Type != server.FrameTables {
		t.Fatalf("reply type %d, want FrameTables", f.Type)
	}

	var expo bytes.Buffer
	if err := srv.Obs().Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(expo.Bytes(), []byte("streamhist_server_trace_reports_bad_total 1")) {
		t.Fatal("dropped trailer not counted in streamhist_server_trace_reports_bad_total")
	}

	// A well-formed trailer on the same conn is accepted and stored.
	buf.Reset()
	rep := server.EncodeTraceReport(server.TraceReport{
		TraceID: 0x42,
		Spans:   []obs.Span{{Name: "scan", Lane: -1, StartNS: 1, DurNS: 2, SpanID: 3}},
	})
	if err := server.WriteFrame(&buf, server.FrameTraceReport, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Obs().Tracer().Reported(0x42)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("well-formed trailer never stored")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replyFrames sends one SCAN on a fresh connection and returns every frame
// of the reply, through the closing summary (or error).
func replyFrames(t *testing.T, srv *server.Server, req server.ScanRequest) []server.Frame {
	t.Helper()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	defer cc.Close()
	if _, err := cc.Write(server.AppendFrame(nil, server.FrameScan, server.EncodeScanRequest(req))); err != nil {
		t.Fatal(err)
	}
	var frames []server.Frame
	for {
		cc.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := server.ReadFrame(cc)
		if err != nil {
			t.Fatalf("reading scan frames: %v", err)
		}
		frames = append(frames, f)
		if f.Type == server.FrameScanEnd || f.Type == server.FrameError {
			return frames
		}
	}
}

// Tracing must not perturb the data path: the same relation scanned with
// and without trace context gets the same reply frame for frame — no frame
// added, none reordered, page payloads and CRC trailers and the summary all
// byte-identical — and a tracing client delivers the bytes an untraced one
// does.
func TestTracedAndUntracedScansDeliverIdenticalBytes(t *testing.T) {
	const rows = 1000
	want := storageBytes(t, rows)

	// A lane retired under test-machine load would show up in the summary;
	// this test is about tracing, not stalls.
	srv := server.NewForTest(server.Config{}, server.TestConfig{SideStallTimeout: time.Minute})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plain := replyFrames(t, srv, server.ScanRequest{Table: "synthetic", Column: "c1"})
	traced := replyFrames(t, srv, server.ScanRequest{Table: "synthetic", Column: "c1", TraceID: 0xbeef, ParentSpanID: 0x11})
	if len(plain) != len(traced) {
		t.Fatalf("untraced reply is %d frames, traced reply %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i].Type != traced[i].Type || !bytes.Equal(plain[i].Payload, traced[i].Payload) {
			t.Fatalf("frame %d differs: untraced type %d (%d bytes), traced type %d (%d bytes)",
				i, plain[i].Type, len(plain[i].Payload), traced[i].Type, len(traced[i].Payload))
		}
	}
	if last := plain[len(plain)-1]; last.Type != server.FrameScanEnd {
		t.Fatalf("reply ended in frame type %d", last.Type)
	}
	// The traced request did continue its trace (published once the reply
	// is out, so wait for it).
	waitAssembled(t, srv.Obs().Tracer(), 0xbeef, func(at *obs.AssembledTrace) bool {
		return at.ServerScans == 1
	})

	for _, tracing := range []bool{false, true} {
		c := pipeClient(srv)
		if tracing {
			c.EnableTracing()
		}
		var got bytes.Buffer
		sum, err := c.Scan("synthetic", "c1", &got)
		if err != nil {
			t.Fatalf("tracing=%v: %v", tracing, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("tracing=%v delivered different bytes", tracing)
		}
		if sum.Pages == 0 || sum.Bytes == 0 {
			t.Fatalf("tracing=%v summary %+v", tracing, sum)
		}
		c.Close()
	}
}
