package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/server"
)

// fetchHwprofJSON pulls /debug/hwprof?format=json through the real
// introspection handler and decodes it back into a profile.
func fetchHwprofJSON(t *testing.T, srv *server.Server) *hwprof.Profile {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(srv.Obs(), nil).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/debug/hwprof?format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/hwprof status %d: %s", rec.Code, rec.Body.String())
	}
	prof := &hwprof.Profile{}
	if err := json.Unmarshal(rec.Body.Bytes(), prof); err != nil {
		t.Fatalf("decode hwprof JSON: %v", err)
	}
	return prof
}

// TestHwprofEndToEndConsistency drives refreshed scans through the wire
// protocol and checks the server-side self-check: the consistency gauge
// reads 1, the attributed-cycles counter matches both the live profiler and
// the profile served over /debug/hwprof, and the per-stage cycle gauges are
// published. The binary endpoint must hand back a gzip stream.
func TestHwprofEndToEndConsistency(t *testing.T) {
	srv := server.New(server.Config{DrainWorkers: 8, ShardLanes: 4, PagesPerFrame: 1})
	if err := srv.Register(testRelation(4000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	for i := 0; i < 2; i++ {
		sum, err := c.Scan("synthetic", "c2", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Refreshed {
			t.Fatal("scan did not refresh statistics")
		}
	}

	expo := scrapeMetrics(t, srv)
	if v := expoValue(t, expo, "streamhist_hwprof_consistency"); v != 1 {
		t.Fatalf("streamhist_hwprof_consistency = %v, want 1", v)
	}
	attributed := expoValue(t, expo, "streamhist_hwprof_attributed_cycles_total")
	if attributed <= 0 {
		t.Fatalf("attributed cycles %v, want > 0", attributed)
	}
	if got := srv.Obs().Profiler().TotalCycles(); float64(got) != attributed {
		t.Fatalf("live profiler total %d != attributed counter %v", got, attributed)
	}
	served := fetchHwprofJSON(t, srv)
	if got := served.TotalCycles(); float64(got) != attributed {
		t.Fatalf("/debug/hwprof total %d != attributed counter %v", got, attributed)
	}
	// The per-(module,stage,reason) gauges summed over lanes must cover the
	// pipeline's compute node at minimum.
	if v := expoValue(t, expo,
		`streamhist_hwprof_cycles{module="binner",stage="preprocess",reason="compute"}`); v <= 0 {
		t.Fatalf("per-stage compute gauge %v, want > 0", v)
	}

	rec := httptest.NewRecorder()
	obs.Handler(srv.Obs(), nil).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/debug/hwprof", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/hwprof binary status %d", rec.Code)
	}
	if b := rec.Body.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("/debug/hwprof did not return a gzip stream (got % x...)", rec.Body.Bytes()[:2])
	}
}

// TestHwprofSingleLaneMatchesAccelCycles: with one shard lane there is no
// fan-in and max-lane == sum-of-lanes, so the attributed total must equal
// the accel-cycles counter to the cycle — the literal equality histserved
// documents for -lanes 1.
func TestHwprofSingleLaneMatchesAccelCycles(t *testing.T) {
	srv := server.New(server.Config{DrainWorkers: 4, ShardLanes: 1})
	if err := srv.Register(testRelation(3000)); err != nil {
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
		t.Fatal("scan did not refresh statistics")
	}
	expo := scrapeMetrics(t, srv)
	attributed := expoValue(t, expo, "streamhist_hwprof_attributed_cycles_total")
	accel := expoValue(t, expo, "streamhist_server_accel_cycles_total")
	if attributed != accel {
		t.Fatalf("single lane: attributed %v != accel cycles %v", attributed, accel)
	}
	if v := expoValue(t, expo, "streamhist_hwprof_consistency"); v != 1 {
		t.Fatalf("streamhist_hwprof_consistency = %v, want 1", v)
	}
}

// TestHwprofConsistencyUnderChaos: fault injection retires lanes, corrupts
// pages, and stretches memory latencies, but attribution must never drift —
// the consistency gauge stays 1 after every scan, and injected spikes and
// ECC corrections show up in the profile rather than vanishing.
func TestHwprofConsistencyUnderChaos(t *testing.T) {
	profile, err := faults.ByName("corruption-heavy")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		DrainWorkers: 8, ShardLanes: 4, PagesPerFrame: 1,
		Faults: faults.New(11, profile),
	})
	if err := srv.Register(testRelation(6000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	refreshed := false
	for i := 0; i < 4; i++ {
		sum, err := c.Scan("synthetic", "c2", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		refreshed = refreshed || sum.Refreshed
		expo := scrapeMetrics(t, srv)
		if v := expoValue(t, expo, "streamhist_hwprof_consistency"); v != 1 {
			t.Fatalf("scan %d: streamhist_hwprof_consistency = %v under chaos, want 1", i, v)
		}
	}
	if !refreshed {
		t.Skip("no scan refreshed under chaos; consistency held but attribution untested")
	}
	prof := srv.Obs().Profiler().Snapshot()
	var spikes, ecc int64
	for _, s := range prof.Samples {
		if len(s.Stack) != 4 {
			continue
		}
		switch s.Stack[3] {
		case hwprof.ReasonSpike:
			spikes += s.Events
		case hwprof.ReasonECC:
			ecc += s.Events
		}
	}
	if spikes == 0 && ecc == 0 {
		t.Fatal("corruption-heavy chaos left no spike or ECC attribution in the profile")
	}
}
