package timeline_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/obs/timeline"
	"streamhist/internal/server"
	"streamhist/internal/stream"
	"streamhist/internal/tpch"
)

// TestTimelineReplaysFaultBurst is the PR's acceptance scenario: a chaos
// server takes a burst of fault-riddled scans, the burst ends, and the whole
// incident is then diagnosed purely from /timeline and /events — after the
// fact, with no debugger attached while it happened.
func TestTimelineReplaysFaultBurst(t *testing.T) {
	rel := tpch.Synthetic(4000, 4, 512, 1.1, 7)
	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatal(err)
	}

	profile, err := faults.ByName(faults.ProfileCorruptionHeavy)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	srv := server.New(server.Config{
		Obs:           o,
		Faults:        faults.New(11, profile),
		PagesPerFrame: 2,
		ShardLanes:    4,
	})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tl := timeline.NewForTest(o, t.TempDir(), timeline.TestConfig{
		Resolutions: []timeline.Res{{Step: time.Second, Len: 60}},
		Detectors: []timeline.Detector{{
			Name:   "quarantine-ratio",
			Metric: "streamhist_server_pages_quarantined_total",
			Denom:  "streamhist_server_pages_moved_total",
			Window: 4, Threshold: 0.01,
		}},
	})

	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
	conn, _ := dial()
	c := client.New(conn)
	c.SetRedial(dial)
	c.SetRetryPolicy(32, time.Millisecond)

	// Quiet lead-in, then the burst (simulated clock: one tick per second),
	// then a quiet tail. The corruption-heavy profile quarantines side-path
	// pages on nearly every scan at these settings.
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tl.Tick(now)
	for i := 0; i < 3; i++ {
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	burstStart := now
	var quarantined uint32
	for i := 0; i < 4; i++ {
		var got bytes.Buffer
		sum, err := c.Scan("synthetic", "c1", &got)
		if err != nil {
			t.Fatalf("scan %d failed outright: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("scan %d delivered bytes differ from storage", i)
		}
		quarantined += sum.QuarantinedPages
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	if quarantined == 0 {
		t.Fatal("chaos profile produced no quarantined pages; test premise broken")
	}
	burstEnd := now
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		tl.Tick(now)
	}

	// Everything below uses only the HTTP surface — the burst is over.
	h := timeline.Handler(tl, o, nil)
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	series := func(metric string) timeline.SeriesData {
		var sd timeline.SeriesData
		if err := json.Unmarshal(get("/timeline?metric="+metric), &sd); err != nil {
			t.Fatalf("decoding %s series: %v", metric, err)
		}
		return sd
	}
	inBurst := func(ms int64) bool {
		return ms > burstStart.UnixMilli() && ms <= burstEnd.UnixMilli()
	}

	// The quarantine spike is visible in exactly the burst windows.
	quar := series("streamhist_server_pages_quarantined_total")
	var inside, outside float64
	for _, p := range quar.Points {
		if inBurst(p.T) {
			inside += p.V
		} else {
			outside += p.V
		}
	}
	// The server can quarantine more than the client's final summary shows
	// (retried attempts quarantine too), but never less — and none of it may
	// land outside the burst windows.
	if inside < float64(quarantined) {
		t.Errorf("burst windows hold %v quarantined pages, client saw %d", inside, quarantined)
	}
	if outside != 0 {
		t.Errorf("quarantine activity leaked outside the burst: %v", outside)
	}

	// So is the data movement, and the quiet tail really is quiet.
	moved := series("streamhist_server_bytes_moved_total")
	inside, outside = 0, 0
	for _, p := range moved.Points {
		if inBurst(p.T) {
			inside += p.V
		} else {
			outside += p.V
		}
	}
	if inside == 0 || outside != 0 {
		t.Errorf("bytes_moved: burst=%v tail=%v, want all movement inside the burst", inside, outside)
	}

	// The detector tripped on the burst and /healthz carries the verdict
	// without failing the probe.
	hz := string(get("/healthz"))
	if !strings.HasPrefix(hz, "ok\n") || !strings.Contains(hz, "detector=quarantine-ratio") {
		t.Errorf("/healthz verdict:\n%s", hz)
	}

	// /events replays the individual scans: wide events flagged anomalous by
	// the fault fallout (degraded, resumed, retried), scan IDs matching the
	// /scans traces.
	var evs []obs.ScanRecord
	if err := json.Unmarshal(get("/events"), &evs); err != nil {
		t.Fatalf("decoding /events: %v", err)
	}
	var anomalous int
	ids := make(map[uint64]bool)
	for _, ev := range evs {
		if ev.Source != "server" {
			continue
		}
		ids[ev.ID] = true
		if ev.Anomalous {
			anomalous++
		}
	}
	if anomalous == 0 {
		t.Errorf("no anomalous events in /events: %+v", evs)
	}
	var traces []obs.ScanRecord
	if err := json.Unmarshal(get("/scans"), &traces); err != nil {
		t.Fatalf("decoding /scans: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("/scans empty")
	}
	joined := 0
	for _, tr := range traces {
		if ids[tr.ID] {
			joined++
		}
	}
	if joined == 0 {
		t.Errorf("no /scans trace joins a /events record by scan ID (events %v, traces %d)", ids, len(traces))
	}
}
