package server_test

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/server"
)

// scrapeMetrics runs one /metrics request through the real introspection
// handler and validates the exposition before returning it.
func scrapeMetrics(t *testing.T, srv *server.Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(srv.Obs(), nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if err := obs.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("server exposition invalid: %v\n%s", err, rec.Body.String())
	}
	return rec.Body.String()
}

// expoValue extracts the sample value for one exact series name (labels
// included) from an exposition document.
func expoValue(t *testing.T, expo, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(expo))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s has unparseable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, expo)
	return 0
}

// TestMetricsExpositionCoversSnapshot is the acceptance check that /metrics
// is a superset of MetricsSnapshot: every snapshot field has a series, the
// two views agree on the shared counters, and the extras (per-lane cycle
// gauges, latency quantiles) are present after a refreshed sharded scan.
func TestMetricsExpositionCoversSnapshot(t *testing.T) {
	rel := testRelation(4000)
	// One page per frame so the round-robin feeder reaches every lane.
	srv := server.New(server.Config{DrainWorkers: 8, ShardLanes: 4, PagesPerFrame: 1})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	sum, err := c.Scan("synthetic", "c2", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Refreshed {
		t.Fatal("scan did not refresh statistics; the lane gauges below would be vacuous")
	}
	if _, err := c.Stats("synthetic", "c2"); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	expo := scrapeMetrics(t, srv)

	// Every MetricsSnapshot field maps to a series, and the values agree.
	for series, want := range map[string]int64{
		"streamhist_server_scans_served_total":         m.ScansServed,
		"streamhist_server_pages_moved_total":          m.PagesMoved,
		"streamhist_server_bytes_moved_total":          m.BytesMoved,
		"streamhist_server_rows_binned_total":          m.RowsBinned,
		"streamhist_server_histograms_refreshed_total": m.HistogramsRefreshed,
		"streamhist_server_stats_served_total":         m.StatsServed,
		"streamhist_server_side_skipped_total":         m.SideSkipped,
		"streamhist_server_parse_errors_total":         m.ParseErrors,
		"streamhist_server_accel_cycles_total":         m.AccelCycles,
		"streamhist_server_active_conns":               m.ActiveConns,
		"streamhist_server_shard_lanes":                m.ShardLanes,
		"streamhist_server_lane_merges_total":          m.LaneMerges,
		"streamhist_server_pages_quarantined_total":    m.PagesQuarantined,
		"streamhist_server_lanes_retired_total":        m.LanesRetired,
		"streamhist_server_scans_degraded_total":       m.ScansDegraded,
		"streamhist_server_retries_served_total":       m.RetriesServed,
		"streamhist_server_ecc_corrected_total":        m.FaultsCorrected,
		"streamhist_server_bins_quarantined_total":     m.BinsQuarantined,
	} {
		if got := expoValue(t, expo, series); int64(got) != want {
			t.Errorf("%s = %v in exposition, snapshot says %d", series, got, want)
		}
	}
	if m.ScansServed != 1 || m.StatsServed != 1 {
		t.Fatalf("snapshot miscounted the workload: %+v", m)
	}

	// The refreshed sharded scan must have charged cycles to every lane.
	for lane := 0; lane < 4; lane++ {
		series := fmt.Sprintf("streamhist_server_lane_cycles{lane=%q}", fmt.Sprint(lane))
		if v := expoValue(t, expo, series); v <= 0 {
			t.Errorf("%s = %v, want > 0 after a refreshed 4-lane scan", series, v)
		}
	}

	// Scan latency is exposed as a streaming-histogram summary.
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		series := fmt.Sprintf("streamhist_server_scan_duration_seconds{quantile=%q}", q)
		if v := expoValue(t, expo, series); v < 0 {
			t.Errorf("%s = %v", series, v)
		}
	}
	if n := expoValue(t, expo, "streamhist_server_scan_duration_seconds_count"); n != 1 {
		t.Errorf("latency count = %v, want 1", n)
	}
}

// TestCorruptionFaultsSurfaceInMetrics injects a memory-upset-heavy fault
// profile and asserts the ECC accounting moves end to end: the
// BinnerStats fold into MetricsSnapshot.FaultsCorrected/BinsQuarantined,
// the same values appear on /metrics, and the live hw event counters (which
// also see lanes that later retire) are at least as large.
func TestCorruptionFaultsSurfaceInMetrics(t *testing.T) {
	srv := server.New(server.Config{
		Faults: faults.New(11, faults.Profile{
			faults.MemReadFlip:  0.2,
			faults.MemWriteFlip: 0.2,
		}),
		ShardLanes: 2,
	})
	if err := srv.Register(testRelation(5000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
		t.Fatalf("scan under memory upsets: %v", err)
	}

	m := srv.Metrics()
	if m.FaultsCorrected == 0 {
		t.Fatal("a 20% read-flip rate over 5000 rows corrected nothing")
	}
	if m.BinsQuarantined == 0 {
		t.Fatal("a 20% write-flip rate (1-in-4 double-bit) quarantined no bins")
	}

	expo := scrapeMetrics(t, srv)
	if got := expoValue(t, expo, "streamhist_server_ecc_corrected_total"); int64(got) != m.FaultsCorrected {
		t.Errorf("exposition ecc_corrected = %v, snapshot %d", got, m.FaultsCorrected)
	}
	if got := expoValue(t, expo, "streamhist_server_bins_quarantined_total"); int64(got) != m.BinsQuarantined {
		t.Errorf("exposition bins_quarantined = %v, snapshot %d", got, m.BinsQuarantined)
	}
	// Live hw events include every lane that ever ran; the folded counters
	// only see state that survived to the merge.
	if live := expoValue(t, expo, "streamhist_hw_ecc_corrected_events_total"); int64(live) < m.FaultsCorrected {
		t.Errorf("live corrected events %v < folded %d", live, m.FaultsCorrected)
	}
	if live := expoValue(t, expo, "streamhist_hw_ecc_quarantined_events_total"); int64(live) < m.BinsQuarantined {
		t.Errorf("live quarantined events %v < folded %d", live, m.BinsQuarantined)
	}
	// The injector's per-point hit gauges are registered when faults are on.
	for _, p := range []faults.Point{faults.MemReadFlip, faults.MemWriteFlip} {
		series := fmt.Sprintf("streamhist_fault_injections{point=%q}", string(p))
		if hits := expoValue(t, expo, series); hits <= 0 {
			t.Errorf("%s = %v, want > 0", series, hits)
		}
	}
}

// TestTraceCycleInvariant is the acceptance check tying tracing to the
// accelerator model: for a refreshed sharded scan, the published trace's
// lane and merge spans must reproduce the summary's AccelCycles exactly —
// max(lane HWCycles) + merge HWCycles — because the model charges the
// critical-path lane plus the fan-in aggregation and histogram chain.
func TestTraceCycleInvariant(t *testing.T) {
	srv := server.New(server.Config{DrainWorkers: 8, ShardLanes: 4, PagesPerFrame: 1})
	if err := srv.Register(testRelation(4000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	sum, err := c.Scan("synthetic", "c3", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Refreshed {
		t.Fatal("scan did not refresh; no lane spans to check")
	}

	// The trace publishes when the handler returns, which can trail the
	// summary's arrival at the client.
	var tr *obs.ScanRecord
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if recent := srv.Obs().Tracer().Recent(1); len(recent) == 1 {
			tr = recent[0]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tr == nil {
		t.Fatal("scan trace never published")
	}

	if tr.Table != "synthetic" || tr.Column != "c3" || !tr.Refreshed || tr.Err != "" {
		t.Fatalf("trace header: %+v", tr)
	}
	if tr.AccelCycles != sum.AccelCycles {
		t.Fatalf("trace AccelCycles %d != summary %d", tr.AccelCycles, sum.AccelCycles)
	}
	if tr.WallNS <= 0 {
		t.Fatal("trace wall clock not stamped")
	}

	var maxLane, merge int64
	lanes := 0
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = true
		switch sp.Name {
		case "lane":
			if sp.Retired {
				t.Fatalf("faultless scan retired lane %d", sp.Lane)
			}
			lanes++
			if sp.HWCycles > maxLane {
				maxLane = sp.HWCycles
			}
			if sp.Lane < 0 || sp.Lane >= 4 {
				t.Fatalf("lane span with index %d", sp.Lane)
			}
		case "merge":
			merge = sp.HWCycles
		}
	}
	for _, want := range []string{"accept", "stream", "lane", "merge", "install"} {
		if !seen[want] {
			t.Fatalf("trace missing %q span; spans: %+v", want, tr.Spans)
		}
	}
	if lanes != 4 {
		t.Fatalf("trace has %d lane spans, want 4", lanes)
	}
	if maxLane <= 0 || merge <= 0 {
		t.Fatalf("degenerate cycle accounting: maxLane=%d merge=%d", maxLane, merge)
	}
	if got := uint64(maxLane + merge); got != tr.AccelCycles {
		t.Fatalf("max(lane)+merge = %d does not reproduce AccelCycles %d", got, tr.AccelCycles)
	}
}
