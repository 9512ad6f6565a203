package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/server"
)

// logCapture is a slog.Handler that keeps every record's message and the
// values of its "scan", "source" and "dur" attributes, so tests can join log
// lines with the scan records the HTTP surface serves.
type logCapture struct {
	mu      sync.Mutex
	records []capturedRecord
}

type capturedRecord struct {
	msg, source string
	scanID      uint64
	dur         time.Duration
}

func (h *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logCapture) WithGroup(string) slog.Handler            { return h }
func (h *logCapture) Handle(_ context.Context, r slog.Record) error {
	cr := capturedRecord{msg: r.Message}
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "scan":
			cr.scanID = a.Value.Uint64()
		case "source":
			cr.source = a.Value.String()
		case "dur":
			cr.dur = a.Value.Duration()
		}
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, cr)
	h.mu.Unlock()
	return nil
}

// find returns the first captured record with the given message and source.
func (h *logCapture) find(msg, source string) (capturedRecord, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, cr := range h.records {
		if cr.msg == msg && cr.source == source {
			return cr, true
		}
	}
	return capturedRecord{}, false
}

// scanRows decodes one of the two record views (/scans, /events) and returns
// its rows from the given source, newest first.
func scanRows(t *testing.T, o *obs.Obs, path, source string) []obs.ScanRecord {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(o, nil).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var rows, out []obs.ScanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	for _, r := range rows {
		if r.Source == source {
			out = append(out, r)
		}
	}
	return out
}

// TestScanIDJoinsLogTraceAndEvent proves the correlation contract: a served
// scan has ONE record, so /scans, /events, the slog line and the latency
// exemplar agree exactly — not approximately — on its id, trace id, start and
// wall time.
func TestScanIDJoinsLogTraceAndEvent(t *testing.T) {
	capture := &logCapture{}
	o := obs.New()
	o.Log = slog.New(capture)

	srv := server.New(server.Config{Obs: o})
	if err := srv.Register(testRelation(2000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	c.EnableTracing()
	var sink bytes.Buffer
	if _, err := c.Scan("synthetic", "c1", &sink); err != nil {
		t.Fatal(err)
	}

	// The server publishes after the summary frame is already on the wire,
	// and observes the latency last of all, so poll for the exemplar.
	latency := o.Registry().Distribution("streamhist_server_scan_duration_seconds", "", 1e-9)
	var ex obs.Exemplar
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var ok bool
		if ex, ok = latency.Exemplar(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no latency exemplar recorded for the traced scan")
		}
	}

	scans, events := scanRows(t, o, "/scans", "server"), scanRows(t, o, "/events", "server")
	if len(scans) == 0 || len(events) == 0 {
		t.Fatalf("/scans has %d server rows, /events %d", len(scans), len(events))
	}
	trace, ev := scans[0], events[0]
	if !reflect.DeepEqual(trace, ev) {
		t.Errorf("/scans and /events serve different records:\n%+v\n%+v", trace, ev)
	}
	if trace.TraceID == 0 || trace.TraceID != c.LastTraceID() {
		t.Errorf("record trace id %#x, client originated %#x", trace.TraceID, c.LastTraceID())
	}
	if trace.Table != "synthetic" || trace.Pages == 0 || trace.Bytes == 0 || trace.Rows == 0 ||
		trace.StartNS == 0 || trace.WallNS <= 0 || len(trace.Spans) == 0 {
		t.Errorf("record not filled in: %+v", trace)
	}

	logged, ok := capture.find("scan served", "server")
	if !ok {
		t.Fatalf("no server 'scan served' log record: %+v", capture.records)
	}
	if logged.scanID != trace.ID || int64(logged.dur) != trace.WallNS {
		t.Errorf("log line says scan %d took %d ns, the record says scan %d took %d ns",
			logged.scanID, logged.dur, trace.ID, trace.WallNS)
	}
	if ex.TraceID != trace.TraceID || ex.Value != trace.WallNS {
		t.Errorf("exemplar (trace %#x, %d ns) is not the record's (trace %#x, %d ns)",
			ex.TraceID, ex.Value, trace.TraceID, trace.WallNS)
	}
}

// TestFailedScanClosesItsSpans: a scan that fails inside a stage publishes a
// record with Err set and that stage's span closed where the time went — by
// the stage itself on its own exit path, with Publish as the backstop.
func TestFailedScanClosesItsSpans(t *testing.T) {
	span := func(rec *obs.ScanRecord, name string) obs.Span {
		t.Helper()
		for _, sp := range rec.Spans {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("record has no %q span: %+v", name, rec.Spans)
		return obs.Span{}
	}
	published := func(srv *server.Server) *obs.ScanRecord {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if recent := srv.Obs().Tracer().Recent(1); len(recent) == 1 {
				return recent[0]
			}
		}
		t.Fatal("failed scan never published its record")
		return nil
	}

	t.Run("conn reset mid-stream", func(t *testing.T) {
		inj := faults.New(3, faults.Profile{faults.ConnReset: 1})
		srv := server.New(server.Config{Faults: inj})
		if err := srv.Register(testRelation(2000)); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		c := client.New(cc)
		defer c.Close()
		if _, err := c.Scan("synthetic", "c1", io.Discard); err == nil {
			t.Fatal("scan survived an injected connection reset with no redial installed")
		}
		rec := published(srv)
		if rec.Err == "" || !rec.Anomalous {
			t.Fatalf("failed scan's record: err %q, anomalous %v", rec.Err, rec.Anomalous)
		}
		if sp := span(rec, "stream"); sp.DurNS <= 0 || sp.DurNS > rec.WallNS {
			t.Errorf("stream span of a scan that died streaming: dur %d ns, wall %d ns", sp.DurNS, rec.WallNS)
		}
	})

	t.Run("unknown table", func(t *testing.T) {
		srv := server.New(server.Config{})
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		if _, err := c.Scan("nosuch", "c1", io.Discard); !errors.Is(err, server.ErrUnknownTable) {
			t.Fatalf("scan of an unknown table: %v", err)
		}
		rec := published(srv)
		if rec.Err == "" {
			t.Fatalf("rejected scan's record carries no error: %+v", rec)
		}
		if sp := span(rec, "accept"); sp.DurNS <= 0 || sp.DurNS > rec.WallNS {
			t.Errorf("accept span of a rejected scan: dur %d ns, wall %d ns", sp.DurNS, rec.WallNS)
		}
	})
}
