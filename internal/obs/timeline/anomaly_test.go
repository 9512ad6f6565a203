package timeline

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamhist/internal/obs"
)

func TestRatioDetectorTripsAndCoolsDown(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	quar := reg.Counter("streamhist_server_pages_quarantined_total", "")
	moved := reg.Counter("streamhist_server_pages_moved_total", "")
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 32}},
		Detectors: []Detector{{
			Name:   "quarantine-ratio",
			Metric: "streamhist_server_pages_quarantined_total",
			Denom:  "streamhist_server_pages_moved_total",
			Window: 4, Threshold: 0.05,
		}},
		Cooldown: 10 * time.Second,
	})

	now := testEpoch
	tl.Tick(now) // prime

	// Healthy traffic: 1% quarantine. Must not trip.
	for i := 0; i < 4; i++ {
		moved.Add(100)
		quar.Add(1)
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	if tl.Trips() != 0 {
		t.Fatalf("healthy traffic tripped: %+v", tl.Anomalies(4))
	}

	// Fault burst: 30% quarantine.
	moved.Add(100)
	quar.Add(30)
	now = now.Add(time.Second)
	tl.Tick(now)
	if tl.Trips() != 1 {
		t.Fatalf("burst did not trip (trips=%d)", tl.Trips())
	}
	a := tl.Anomalies(1)[0]
	if a.Detector != "quarantine-ratio" || a.Metric != "streamhist_server_pages_quarantined_total" || a.Value <= 0.05 {
		t.Errorf("anomaly = %+v", a)
	}
	if a.TimeMS != now.UnixMilli() {
		t.Errorf("anomaly stamped %d, want %d", a.TimeMS, now.UnixMilli())
	}

	// The burst keeps the windowed ratio high — but cooldown debounces.
	for i := 0; i < 3; i++ {
		moved.Add(100)
		quar.Add(30)
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	if tl.Trips() != 1 {
		t.Errorf("cooldown failed to debounce: trips=%d", tl.Trips())
	}

	// Past the cooldown the still-bad ratio trips again.
	now = now.Add(11 * time.Second)
	moved.Add(100)
	quar.Add(30)
	tl.Tick(now)
	if tl.Trips() != 2 {
		t.Errorf("post-cooldown re-trip missing: trips=%d", tl.Trips())
	}

	// The trip counter is a first-class registry metric.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `streamhist_anomaly_trips_total{detector="quarantine-ratio"} 2`) {
		t.Errorf("trip counter missing from exposition:\n%s", buf.String())
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

func TestDropDetectorNeedsBaselineAndActivity(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	bytes := reg.Counter("streamhist_server_bytes_moved_total", "")
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 64}},
		Detectors: []Detector{{
			Name:   "throughput-drop",
			Metric: "streamhist_server_bytes_moved_total",
			Window: 2, Trailing: 6, Threshold: 0.3, Below: true, MinActivity: 1000,
		}},
	})

	now := testEpoch
	tl.Tick(now)

	// Idle system: zero trailing mean stays under MinActivity — never trips
	// even though "recent vs trailing" is degenerate.
	now = tickN(tl, now, 10)
	if tl.Trips() != 0 {
		t.Fatal("idle system tripped throughput-drop")
	}

	// Steady 10KB/s for the trailing baseline, then a collapse to ~0.
	for i := 0; i < 6; i++ {
		bytes.Add(10_000)
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	for i := 0; i < 2; i++ {
		bytes.Add(10) // >0 but far below 30% of baseline
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	if tl.Trips() != 1 {
		t.Fatalf("collapse did not trip (trips=%d, anomalies=%+v)", tl.Trips(), tl.Anomalies(4))
	}
	a := tl.Anomalies(1)[0]
	if a.Value >= 0.3 {
		t.Errorf("drop fraction %v, want < 0.3", a.Value)
	}
}

func TestTripWritesDebugBundle(t *testing.T) {
	dir := t.TempDir()
	o := obs.New()
	reg := o.Registry()
	c := reg.Counter("streamhist_durable_wal_dropped_total", "")
	tl := NewForTest(o, dir, TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 8}},
		Detectors: []Detector{{
			Name:   "wal-drops",
			Metric: "streamhist_durable_wal_dropped_total", Window: 1,
		}},
		BundleLimit: 2,
		Cooldown:    time.Nanosecond,
	})
	o.Publish(&obs.ScanRecord{ID: 7, Table: "lineitem", QuarantinedPages: 3})

	now := testEpoch
	tl.Tick(now)
	c.Add(5)
	now = now.Add(time.Second)
	tl.Tick(now)

	if tl.Trips() != 1 {
		t.Fatalf("trips = %d", tl.Trips())
	}
	a := tl.Anomalies(1)[0]
	if a.Bundle == "" {
		t.Fatal("trip produced no bundle")
	}
	if filepath.Dir(a.Bundle) != dir {
		t.Errorf("bundle %q not under %q", a.Bundle, dir)
	}

	// The manifest is self-describing: every listed file exists.
	raw, err := os.ReadFile(filepath.Join(a.Bundle, "anomaly.json"))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var man struct {
		Anomaly Anomaly  `json:"anomaly"`
		Trips   uint64   `json:"trips_total"`
		Files   []string `json:"files"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("manifest parse: %v", err)
	}
	if man.Anomaly.Detector != "wal-drops" || man.Trips != 1 {
		t.Errorf("manifest = %+v", man)
	}
	have := make(map[string]bool)
	for _, f := range man.Files {
		have[f] = true
		if _, err := os.Stat(filepath.Join(a.Bundle, f)); err != nil {
			t.Errorf("manifest lists %s but: %v", f, err)
		}
	}
	for _, want := range []string{"timeline.json", "events.json", "heap.pb.gz", "goroutines.txt"} {
		if !have[want] {
			t.Errorf("bundle missing %s (have %v)", want, man.Files)
		}
	}

	// timeline.json replays the WAL-drop burst; events.json holds the scan.
	var slice []SeriesData
	raw, _ = os.ReadFile(filepath.Join(a.Bundle, "timeline.json"))
	if err := json.Unmarshal(raw, &slice); err != nil {
		t.Fatalf("timeline.json: %v", err)
	}
	found := false
	for _, sd := range slice {
		if sd.Metric == "streamhist_durable_wal_dropped_total" && sd.Res == "1s" {
			for _, p := range sd.Points {
				if p.V == 5 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("timeline.json does not replay the WAL-drop burst")
	}
	var evs []obs.ScanRecord
	raw, _ = os.ReadFile(filepath.Join(a.Bundle, "events.json"))
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("events.json: %v", err)
	}
	if len(evs) != 1 || evs[0].ID != 7 {
		t.Errorf("events.json = %+v", evs)
	}

	// heap.pb.gz must parse with the real pprof tool (the acceptance bar).
	if _, err := exec.LookPath("go"); err == nil {
		out, err := exec.Command("go", "tool", "pprof", "-top",
			filepath.Join(a.Bundle, "heap.pb.gz")).CombinedOutput()
		if err != nil {
			t.Errorf("go tool pprof on heap.pb.gz: %v\n%s", err, out)
		}
	} else {
		t.Log("go binary not on PATH; skipping pprof parse check")
	}

	// More trips than BundleLimit: oldest bundles are pruned.
	for i := 0; i < 4; i++ {
		c.Add(1)
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("bundle dir holds %d entries, want BundleLimit=2", len(entries))
	}
	// The survivors are the newest (names sort by sequence).
	if _, err := os.Stat(a.Bundle); !os.IsNotExist(err) {
		t.Errorf("oldest bundle %s not pruned (err=%v)", a.Bundle, err)
	}
}

func TestHTTPHandlerSurfaces(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	c := reg.Counter("streamhist_durable_wal_dropped_total", "")
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 8}},
		Detectors: []Detector{{
			Name:   "wal-drops",
			Metric: "streamhist_durable_wal_dropped_total", Window: 1,
		}},
	})
	h := Handler(tl, o, nil)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	now := testEpoch
	tl.Tick(now)
	c.Add(3)
	tl.Tick(now.Add(time.Second))

	// Index.
	rec := get("/timeline")
	var idx Index
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatalf("/timeline index: %v", err)
	}
	if len(idx.Resolutions) != 1 || idx.Resolutions[0] != "1s" || idx.Trips != 1 {
		t.Errorf("index = %+v", idx)
	}

	// Series, including explicit res.
	for _, u := range []string{
		"/timeline?metric=streamhist_durable_wal_dropped_total",
		"/timeline?metric=streamhist_durable_wal_dropped_total&res=1s",
	} {
		rec = get(u)
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", u, rec.Code, rec.Body)
		}
		var sd SeriesData
		if err := json.Unmarshal(rec.Body.Bytes(), &sd); err != nil {
			t.Fatalf("series decode: %v", err)
		}
		if len(sd.Points) != 2 || sd.Points[1].V != 3 {
			t.Errorf("GET %s points = %+v", u, sd.Points)
		}
	}
	if rec = get("/timeline?metric=nope"); rec.Code != 404 {
		t.Errorf("unknown metric: %d", rec.Code)
	}
	if rec = get("/timeline?metric=streamhist_durable_wal_dropped_total&res=9h"); rec.Code != 404 {
		t.Errorf("unknown res: %d", rec.Code)
	}

	// Anomalies.
	rec = get("/anomalies")
	var as []Anomaly
	if err := json.Unmarshal(rec.Body.Bytes(), &as); err != nil || len(as) != 1 {
		t.Errorf("/anomalies = %s (err %v)", rec.Body, err)
	}
	if rec = get("/anomalies?n=bogus"); rec.Code != 400 {
		t.Errorf("bad n: %d", rec.Code)
	}

	// /healthz stays 200 under anomalies but carries the verdict.
	rec = get("/healthz")
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "anomaly_trips 1") || !strings.Contains(body, "detector=wal-drops") {
		t.Errorf("/healthz verdict missing:\n%s", body)
	}

	// The obs surface passes through.
	if rec = get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "streamhist_durable_wal_dropped_total") {
		t.Errorf("/metrics passthrough broken: %d", rec.Code)
	}

	// Nil timeline degrades to the plain obs handler: no /timeline route.
	nilH := Handler(nil, o, nil)
	rec = httptest.NewRecorder()
	nilH.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Errorf("nil-timeline /metrics = %d", rec.Code)
	}
}
