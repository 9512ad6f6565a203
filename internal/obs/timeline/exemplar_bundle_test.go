package timeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamhist/internal/obs"
)

// A debug bundle written while a Tracer is wired joins metric exemplars to
// their distributed traces: exemplars.json names the metric, the trace ID,
// and — when the tracer still holds it — the assembled trace itself.
func TestBundleIncludesExemplarTraces(t *testing.T) {
	const traceID = uint64(0x5eed)
	dir := t.TempDir()
	o := obs.New()
	reg, tracer := o.Registry(), o.Tracer()

	d := reg.Distribution("streamhist_scan_seconds", "docs", 1e-9)
	d.ObserveWithExemplar(2_000_000, traceID)
	st := obs.StartScan(1, "server", "lineitem", "l_tax", 4)
	st.EnableTrace(traceID, 0, obs.SpanSideServer)
	st.End(st.Begin("accept"), 0)
	tracer.Publish(st)

	c := reg.Counter("streamhist_durable_wal_dropped_total", "")
	tl := NewForTest(o, dir, TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 8}},
		Detectors: []Detector{{
			Name:   "wal-drops",
			Metric: "streamhist_durable_wal_dropped_total", Window: 1,
		}},
		Cooldown: time.Nanosecond,
	})

	now := testEpoch
	tl.Tick(now)
	c.Add(1)
	tl.Tick(now.Add(time.Second))
	if tl.Trips() != 1 {
		t.Fatalf("trips = %d", tl.Trips())
	}
	bundle := tl.Anomalies(1)[0].Bundle

	raw, err := os.ReadFile(filepath.Join(bundle, "anomaly.json"))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var man struct {
		Files []string `json:"files"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, f := range man.Files {
		if f == "exemplars.json" {
			listed = true
		}
	}
	if !listed {
		t.Fatalf("manifest lacks exemplars.json: %v", man.Files)
	}

	raw, err = os.ReadFile(filepath.Join(bundle, "exemplars.json"))
	if err != nil {
		t.Fatal(err)
	}
	var exs []struct {
		Metric  string              `json:"metric"`
		Value   int64               `json:"value"`
		TraceID string              `json:"trace_id"`
		Trace   *obs.AssembledTrace `json:"trace"`
	}
	if err := json.Unmarshal(raw, &exs); err != nil {
		t.Fatalf("exemplars.json: %v", err)
	}
	if len(exs) != 1 {
		t.Fatalf("exemplars.json holds %d entries, want 1", len(exs))
	}
	ex := exs[0]
	if ex.Metric != "streamhist_scan_seconds" || ex.Value != 2_000_000 {
		t.Fatalf("exemplar entry = %+v", ex)
	}
	if ex.TraceID != fmt.Sprintf("%016x", traceID) {
		t.Fatalf("exemplar trace id %q", ex.TraceID)
	}
	if ex.Trace == nil || ex.Trace.TraceID != traceID || ex.Trace.ServerScans != 1 {
		t.Fatalf("exemplar's assembled trace = %+v", ex.Trace)
	}
}
