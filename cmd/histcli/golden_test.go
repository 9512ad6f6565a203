package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamhist/internal/obs"
	"streamhist/internal/obs/timeline"
)

// golden compares got with testdata/name byte for byte.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// A zero-length span starting at the trace's end maps to the cell one past
// the bar area, and a span that malformed /traces JSON starts before the
// trace maps to a negative cell; both are clamped onto the axis.
func TestPrintWaterfallClampsBars(t *testing.T) {
	at := &obs.AssembledTrace{
		TraceID: 0x5eed, Table: "lineitem", Column: "l_tax",
		StartNS: 0, EndNS: 100e6, ServerScans: 1, ClientSpans: 1,
		Spans: []obs.Span{
			{Name: "scan", Lane: -1, StartNS: 0, DurNS: 100e6, SpanID: 1, Source: "client"},
			{Name: "stream", Lane: -1, StartNS: 25e6, DurNS: 50e6, SpanID: 2, ParentID: 1, Source: "server"},
			{Name: "install", Lane: -1, StartNS: 100e6, DurNS: 0, SpanID: 3, ParentID: 1, Source: "server"},
			{Name: "lane", Lane: 0, StartNS: -10e6, DurNS: 5e6, SpanID: 4, ParentID: 2, Source: "server", HWCycles: 7},
		},
	}
	var b bytes.Buffer
	printWaterfall(&b, at, 64)
	golden(t, "waterfall.golden", b.String())
}

// The pretty exposition keeps the p99 sample's value in the value column:
// the OpenMetrics exemplar is split off before the series and value are
// taken, and a sample timestamp is dropped.
func TestPrintExpositionSplitsExemplar(t *testing.T) {
	const text = `# HELP x_seconds Scan latency.
# TYPE x_seconds summary
x_seconds{quantile="0.5"} 0.001
x_seconds{quantile="0.99"} 0.004 # {trace_id="00000000000005ed"} 0.009
x_seconds_sum 1.5
x_seconds_count 300
# TYPE y_total counter
y_total{lane="a b"} 17 1700000000000
`
	var b bytes.Buffer
	printExposition(&b, text, "")
	printExposition(&b, text, "quantile")
	golden(t, "exposition.golden", b.String())
}

// `histcli top -n 1` renders one frame of a timeline the test ticks by hand:
// stock metrics first, the distinct-entity series, sparklines newest on the
// right, and the frame stamped with its newest window.
func TestTopCommand(t *testing.T) {
	o := obs.New()
	moved := o.Registry().Counter("streamhist_server_bytes_moved_total", "")
	served := o.Registry().Counter("streamhist_server_scans_served_total", "")
	latency := o.Registry().Distribution("streamhist_server_scan_duration_seconds", "", 1e-9)
	tl := timeline.New(o, "")
	web := httptest.NewServer(timeline.Handler(tl, o, nil))
	defer web.Close()

	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tl.Tick(now)
	for i := 1; i <= 6; i++ {
		moved.Add(int64(8192 * i))
		served.Add(int64(i % 3))
		latency.Observe(int64(i) * int64(time.Millisecond))
		for j := 0; j < i; j++ {
			o.Publish(&obs.ScanRecord{Table: fmt.Sprintf("t%d", j), Client: "10.0.0.1:1"})
		}
		now = now.Add(time.Second)
		tl.Tick(now)
	}

	out, err := capture(t, runTop, "-addr", web.URL, "-n", "1", "-width", "10", "-metrics",
		"streamhist_server_bytes_moved_total,streamhist_server_scans_served_total,"+
			"streamhist_server_scan_duration_seconds,timeline_distinct_tables,timeline_distinct_clients")
	if err != nil {
		t.Fatalf("top: %v", err)
	}
	golden(t, "top.golden", out)

	// Without -metrics the stock dashboard comes first, then what else the
	// server tracks, alphabetically.
	out, err = capture(t, runTop, "-addr", web.URL, "-n", "1", "-width", "10")
	if err != nil {
		t.Fatalf("top: %v", err)
	}
	golden(t, "top-default.golden", out)
}

// `histcli profile -top` and `-tree` render a hand-charged profiler fetched
// through /debug/hwprof's text form.
func TestProfileCommand(t *testing.T) {
	o := obs.New()
	p := o.Profiler()
	p.Node("lane0", "binner", "read", "compute").Add(6000)
	p.Node("lane0", "binner", "read", "mem-wait").Add(1500)
	p.Node("lane1", "binner", "read", "compute").Add(5000)
	p.Node("lane1", "parser", "split", "fifo-full-stall").Add(500)
	p.Node("merged", "aggregation", "fan-in", "aggregation").Add(2000)
	p.Node("lane0", "binner", "read", "ecc-correct").AddEvents(3)
	web := httptest.NewServer(obs.Handler(o, nil))
	defer web.Close()

	out, err := capture(t, runProfile, "-addr", web.URL, "-top", "3")
	if err != nil {
		t.Fatalf("profile -top: %v", err)
	}
	golden(t, "profile-top.golden", out)

	out, err = capture(t, runProfile, "-addr", web.URL, "-tree")
	if err != nil {
		t.Fatalf("profile -tree: %v", err)
	}
	golden(t, "profile-tree.golden", out)
}
