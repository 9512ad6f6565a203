package client_test

import (
	"errors"
	"io"
	"net"
	"testing"

	"streamhist/internal/server"
)

// writeFrame is the fake server's reply primitive.
func writeFrame(t *testing.T, conn net.Conn, typ uint8, payload []byte) {
	t.Helper()
	if err := server.WriteFrame(conn, typ, payload); err != nil {
		t.Errorf("fake server write: %v", err)
	}
}

// emptySummary closes a zero-page fake scan consistently with the client's
// received-byte accounting.
func emptySummary() []byte {
	return server.EncodeScanSummary(server.ScanSummary{})
}

// A tracing client ships its spans in a FrameTraceReport trailer after any
// scan that succeeded — same trace ID, client-side span names, root span
// parented at zero — and sends nothing after one that failed: the next thing
// the server sees on that connection is the client going away.
func TestTracingClientShipsTrailerAfterTraceInfo(t *testing.T) {
	reports := make(chan server.TraceReport, 1)
	c := fakeServer(t, func(conn net.Conn) {
		f := readRequest(t, conn)
		req, err := server.DecodeScanRequest(f.Payload)
		if err != nil || req.TraceID == 0 || req.ParentSpanID == 0 {
			t.Errorf("traced request: %+v (%v)", req, err)
			return
		}
		writeFrame(t, conn, server.FrameScanEnd, emptySummary())

		f, err = server.ReadFrame(conn)
		if err != nil {
			t.Errorf("reading trailer: %v", err)
			return
		}
		if f.Type != server.FrameTraceReport {
			t.Errorf("trailer frame type %d, want FrameTraceReport", f.Type)
			return
		}
		rep, err := server.DecodeTraceReport(f.Payload)
		if err != nil {
			t.Errorf("decoding trailer: %v", err)
			return
		}
		reports <- rep
	})
	c.EnableTracing()

	if _, err := c.Scan("lineitem", "l_tax", io.Discard); err != nil {
		t.Fatalf("traced scan: %v", err)
	}

	rep := <-reports
	if rep.TraceID != c.LastTraceID() {
		t.Fatalf("trailer trace %#x, want %#x", rep.TraceID, c.LastTraceID())
	}
	if len(rep.Spans) == 0 {
		t.Fatal("trailer carried no spans")
	}
	names := map[string]bool{}
	for _, sp := range rep.Spans {
		names[sp.Name] = true
		if sp.SpanID == 0 {
			t.Fatalf("span %q shipped without an id", sp.Name)
		}
	}
	for _, want := range []string{"scan", "request", "stream"} {
		if !names[want] {
			t.Fatalf("trailer lacks the %q span: %v", want, names)
		}
	}
	// The root scan span parents at zero — it IS the tree's root.
	if rep.Spans[0].Name != "scan" || rep.Spans[0].ParentID != 0 {
		t.Fatalf("first trailer span %+v, want the root scan span", rep.Spans[0])
	}

	failed := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		writeFrame(t, conn, server.FrameError, server.EncodeError(server.ErrUnknownTable))
		if f, err := server.ReadFrame(conn); err == nil {
			t.Errorf("a failed scan still drew frame type %d", f.Type)
		}
	})
	failed.EnableTracing()
	if _, err := failed.Scan("ghost", "c", io.Discard); !errors.Is(err, server.ErrUnknownTable) {
		t.Fatalf("failed traced scan: %v, want ErrUnknownTable", err)
	}
	failed.Close() // lets the fake server's read return
}
