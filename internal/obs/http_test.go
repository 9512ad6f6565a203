package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"streamhist/internal/hwprof"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp, body
}

func TestHandlerEndpoints(t *testing.T) {
	o := New()
	o.reg.Counter("streamhist_httptest_total", "docs").Add(11)
	tt := StartScan(42, "server", "lineitem", "l_quantity", 4)
	tt.End(tt.Begin("accept"), 0)
	o.trace.Publish(tt)

	var unhealthy atomic.Bool
	srv := httptest.NewServer(Handler(o, func() error {
		if unhealthy.Load() {
			return errors.New("drain pool saturated")
		}
		return nil
	}))
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if err := ValidateExposition(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	if !strings.Contains(string(body), "streamhist_httptest_total 11\n") {
		t.Fatalf("/metrics missing registered counter:\n%s", body)
	}

	resp, body = get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	unhealthy.Store(true)
	resp, body = get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "drain pool saturated") {
		t.Fatalf("unhealthy /healthz = %d %q", resp.StatusCode, body)
	}

	resp, body = get(t, srv, "/scans")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/scans status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/scans content type %q", ct)
	}
	var traces []ScanRecord
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatalf("/scans JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].ID != 42 || traces[0].Table != "lineitem" {
		t.Fatalf("/scans traces: %+v", traces)
	}

	if resp, _ := get(t, srv, "/scans?n=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/scans?n=bogus status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/scans?n=-3"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/scans?n=-3 status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/scans?n=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/scans?n=0 status %d, want 400", resp.StatusCode)
	}
	// A huge n clamps to the ring depth rather than overallocating or erroring.
	resp, body = get(t, srv, "/scans?n=1000000000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/scans?n=1e9 status %d, want 200", resp.StatusCode)
	}
	traces = nil
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatalf("/scans?n=1e9 JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 {
		t.Fatalf("/scans?n=1e9 returned %d traces, want the 1 published", len(traces))
	}

	if resp, _ := get(t, srv, "/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

// TestHandlerNilHealthAndEmptyState checks the degenerate wiring: no health
// probe, no traces, empty registry — the endpoints still answer (an empty
// registry legitimately fails exposition validation, so /metrics is just
// checked for 200).
func TestHandlerNilHealthAndEmptyState(t *testing.T) {
	srv := httptest.NewServer(Handler(New(), nil))
	defer srv.Close()

	if resp, _ := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with nil probe = %d", resp.StatusCode)
	}
	resp, body := get(t, srv, "/scans")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty /scans = %d %q, want 200 []", resp.StatusCode, body)
	}
	if resp, _ := get(t, srv, "/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty /metrics = %d", resp.StatusCode)
	}
}

// TestHandlerHwprofEdgeCases: the profile endpoint must reject malformed
// seconds values, serve an empty-but-valid profile before any scan ran, and
// answer 503 (not panic) when the bundle has no profiler wired at all.
func TestHandlerHwprofEdgeCases(t *testing.T) {
	srv := httptest.NewServer(Handler(New(), nil))
	defer srv.Close()

	for _, q := range []string{"?seconds=bogus", "?seconds=-1"} {
		if resp, body := get(t, srv, "/debug/hwprof"+q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/debug/hwprof%s = %d %q, want 400", q, resp.StatusCode, body)
		}
	}
	resp, body := get(t, srv, "/debug/hwprof?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/hwprof on idle profiler = %d %q", resp.StatusCode, body)
	}
	var idle hwprof.Profile
	if err := json.Unmarshal(body, &idle); err != nil || idle.TimeNanos == 0 || len(idle.Samples) != 0 {
		t.Fatalf("idle JSON profile = %+v (%v): %q", idle, err, firstOf(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON profile served as %q", ct)
	}

	noProf := httptest.NewServer(Handler(&Obs{reg: NewRegistry(), trace: NewTracer(8)}, nil))
	defer noProf.Close()
	if resp, body := get(t, noProf, "/debug/hwprof"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/debug/hwprof with no profiler = %d %q, want 503", resp.StatusCode, body)
	}
}

func firstOf(b []byte) string {
	if i := strings.IndexByte(string(b), '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}
