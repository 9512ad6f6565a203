package main

import (
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/obs/timeline"
	"streamhist/internal/server"
	"streamhist/internal/tpch"
)

// capture runs one subcommand with os.Stdout redirected and returns what it
// printed beside its error. The subcommands print straight to the process's
// stdout, so tests in this package never run in parallel.
func capture(t *testing.T, run func([]string) error, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a failed read shows as missing output below
		printed <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

func wantOutput(t *testing.T, what, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("%s output lacks %q:\n%s", what, want, out)
		}
	}
}

// serverSpans are the phases every refreshed served scan records, in the
// order the scan runs them.
var serverSpans = []string{"accept", "stream", "lane", "merge", "install"}

// The introspection subcommands against a live server's real HTTP surface,
// after one traced scan: `metrics` decodes /scans (the scan record's JSON
// shape) and validates the exposition, `trace` renders the assembled
// waterfall and validates the Perfetto export.
func TestMetricsAndTraceCommands(t *testing.T) {
	srv := server.New(server.Config{ShardLanes: 2})
	if err := srv.Register(tpch.Synthetic(3000, 4, 512, 1.1, 7)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tl := timeline.New(srv.Obs(), "")
	web := httptest.NewServer(timeline.Handler(tl, srv.Obs(), nil))
	defer web.Close()

	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c := client.New(cc)
	defer c.Close()
	c.EnableTracing()
	if sum, err := c.Scan("synthetic", "c1", io.Discard); err != nil || !sum.Refreshed {
		t.Fatalf("traced scan: %+v, %v", sum, err)
	}
	// The client's span trailer follows the summary; the server stores it
	// when its connection loop gets to it.
	traceID := c.LastTraceID()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		at := srv.Obs().Tracer().Assemble(traceID)
		if at != nil && at.ClientSpans > 0 && at.ServerScans == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %016x did not assemble with both halves: %+v", traceID, at)
		}
	}

	out, err := capture(t, runMetrics, "-addr", web.URL, "-scans", "2", "-check")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	wantOutput(t, "metrics", out, "exposition: OK",
		"streamhist_server_scans_served_total", "streamhist_server_scan_duration_seconds",
		"last 1 scan trace(s), newest first:", "scan 1 synthetic.c1:", "refreshed, ok",
		"lane 0", "lane 1")
	for _, name := range serverSpans {
		wantOutput(t, "metrics", out, "\n    "+name)
	}

	hex := fmt.Sprintf("%016x", traceID)
	out, err = capture(t, runTrace, "-addr", web.URL, hex)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	wantOutput(t, "trace", out, "trace "+hex+" synthetic.c1:", "1 server scan(s)",
		"client/scan", "client/request", "client/stream", "server/serve", "server/lane 0", "server/lane 1")
	for _, name := range serverSpans {
		wantOutput(t, "trace", out, "server/"+name)
	}

	out, err = capture(t, runTrace, "-addr", web.URL, "-check", hex)
	if err != nil {
		t.Fatalf("trace -check: %v", err)
	}
	wantOutput(t, "trace -check", out, "tracez: OK (")

	if _, err := capture(t, runTrace, "-addr", web.URL, "0123456789abcdef"); err == nil {
		t.Error("trace of an id the server never saw did not fail")
	}
	if _, err := capture(t, runTrace, "-addr", web.URL); err == nil {
		t.Error("trace with no id did not fail")
	}
}
