package server_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
)

// TestServedScanRefreshesSketches is the serving-side acceptance test of the
// sketch engine: a plain scan over the wire must leave NDV, heavy hitters,
// and the window in the catalog beside the histogram, and STATS must carry
// them back to the client — statistics as a side effect of data movement,
// now for sketches too.
func TestServedScanRefreshesSketches(t *testing.T) {
	rel := testRelation(5000)
	srv := server.New(server.Config{DrainWorkers: 4, ShardLanes: 4})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	sum, err := c.Scan("synthetic", "c1", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Refreshed {
		t.Fatal("scan did not refresh statistics")
	}

	cs := srv.Catalog().Get("synthetic", "c1")
	if cs == nil || len(cs.Sketches) != 3 {
		t.Fatalf("catalog entry has %d sketch blocks, want 3", len(cs.Sketches))
	}
	hll := cs.Sketches.HLL()
	if hll == nil || hll.Items() != int64(rel.NumRows()) {
		t.Fatalf("HLL consumed %d values, want every one of %d rows", hll.Items(), rel.NumRows())
	}
	// The sketch NDV must agree with the binned view's exact count within
	// HLL's error envelope (p=12 → σ ≈ 1.6%; allow 10%).
	exact := float64(cs.NDistinct)
	if est := hll.Estimate(); math.Abs(est-exact) > 0.10*exact {
		t.Fatalf("HLL NDV %v vs exact %v: outside 10%%", est, exact)
	}
	if cs.Sketches.Heavy() == nil || cs.Sketches.Heavy().Items() != int64(rel.NumRows()) {
		t.Fatal("heavy-hitter block missing or starved")
	}
	if w := cs.Sketches.Window(); w == nil || w.Aggregate().Count == 0 {
		t.Fatal("window block missing or empty")
	}

	// And STATS carries the same blocks over the wire, byte-identical.
	st, err := c.Stats("synthetic", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sketches) != 3 {
		t.Fatalf("STATS returned %d sketch blocks, want 3", len(st.Sketches))
	}
	for i, b := range st.Sketches {
		want, _ := cs.Sketches[i].MarshalBinary()
		got, _ := b.MarshalBinary()
		if !bytes.Equal(want, got) {
			t.Errorf("wire block %s not byte-identical to the catalog's", b.Name())
		}
	}
	if est, ok := st.Sketches.NDVEstimate(); !ok || math.Abs(est-exact) > 0.10*exact {
		t.Fatalf("wire NDV estimate (%v, %v) drifted from catalog", est, ok)
	}
}

// TestServerSketchDisabled: with the chain off, scans still refresh
// histograms, the catalog holds no sketches, and STATS carries an empty
// sketch list.
func TestServerSketchDisabled(t *testing.T) {
	srv := server.New(server.Config{Sketch: &sketch.ChainSpec{}})
	if err := srv.Register(testRelation(2000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	sum, err := c.Scan("synthetic", "c1", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Refreshed {
		t.Fatal("scan did not refresh")
	}
	cs := srv.Catalog().Get("synthetic", "c1")
	if cs == nil || len(cs.Sketches) != 0 {
		t.Fatalf("disabled chain left %d sketches in the catalog", len(cs.Sketches))
	}
	st, err := c.Stats("synthetic", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sketches) != 0 {
		t.Fatal("disabled chain served sketches over the wire")
	}
	if st.Histogram == nil {
		t.Fatal("histogram lost without sketches")
	}
}

// TestSketchConfigOverridesApply: a custom ChainSpec flows through Config to
// the served blocks (precision, k, and window width all observable).
func TestSketchConfigOverridesApply(t *testing.T) {
	srv := server.New(server.Config{
		Sketch: &sketch.ChainSpec{NDVPrecision: 9, HeavyK: 5, WindowW: 32},
	})
	if err := srv.Register(testRelation(2000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
		t.Fatal(err)
	}
	cs := srv.Catalog().Get("synthetic", "c1")
	if got := cs.Sketches.HLL().Precision(); got != 9 {
		t.Errorf("precision %d, want 9", got)
	}
	if got := cs.Sketches.Heavy().Capacity(); got != 5 {
		t.Errorf("heavy capacity %d, want 5", got)
	}
	if got := cs.Sketches.Window().W(); got != 32 {
		t.Errorf("window width %d, want 32", got)
	}
}

// TestHwprofConsistencyWithSketches: the sketch chain charges its cycles
// into the merged frame, so the end-to-end attribution invariant — the
// consistency gauge at 1, attributed == live profiler — must hold with the
// chain on, and the profile must contain sketch-reason nodes whose total is
// exactly items × cycles-per-value per block.
func TestHwprofConsistencyWithSketches(t *testing.T) {
	rel := testRelation(4000)
	srv := server.New(server.Config{DrainWorkers: 4, ShardLanes: 4, PagesPerFrame: 1})
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
		t.Fatal("scan did not refresh")
	}

	expo := scrapeMetrics(t, srv)
	if v := expoValue(t, expo, "streamhist_hwprof_consistency"); v != 1 {
		t.Fatalf("streamhist_hwprof_consistency = %v with sketches on, want 1", v)
	}
	attributed := expoValue(t, expo, "streamhist_hwprof_attributed_cycles_total")
	if got := srv.Obs().Profiler().TotalCycles(); float64(got) != attributed {
		t.Fatalf("live profiler %d != attributed %v", got, attributed)
	}

	prof := srv.Obs().Profiler().Snapshot()
	var sketchCycles, sketchEvents int64
	for _, s := range prof.Samples {
		if len(s.Stack) == 4 && s.Stack[3] == hwprof.ReasonSketch {
			sketchCycles += s.Cycles
			sketchEvents += s.Events
		}
	}
	rows := int64(rel.NumRows())
	wantCycles := rows * (sketch.DefaultHLLCyclesPerValue +
		sketch.DefaultHeavyCyclesPerValue + sketch.DefaultWindowCyclesPerValue)
	if sketchCycles != wantCycles {
		t.Fatalf("sketch-reason cycles %d != rows×Σcpv %d", sketchCycles, wantCycles)
	}
	if sketchEvents != 3*rows {
		t.Fatalf("sketch events %d != 3 blocks × %d rows", sketchEvents, rows)
	}

	// The per-block gauges are published.
	for _, name := range []string{"hll", "spacesaving", "window"} {
		if v := expoValue(t, expo, fmt.Sprintf("streamhist_sketch_items{block=%q}", name)); v != float64(rows) {
			t.Errorf("streamhist_sketch_items{block=%q} = %v, want %d", name, v, rows)
		}
	}
	if v := expoValue(t, expo, "streamhist_sketch_ndv_estimate"); v <= 0 {
		t.Errorf("streamhist_sketch_ndv_estimate = %v, want > 0", v)
	}
}

// TestChaosSketchSurvivesLaneRetirement extends the chaos matrix to the
// sketch engine under the lane-failure-heavy profile (which injects lane
// panics and stalls but no sketch faults): whenever a scan comes back clean
// — every retirement masked by replay — the order-insensitive blocks (HLL)
// and the position-keyed window must be byte-identical to a fault-free run's,
// and the heavy-hitter summary must keep its accounting (items == rows,
// ≤ k counters). Degraded scans must flag every sketch Degraded.
func TestChaosSketchSurvivesLaneRetirement(t *testing.T) {
	const rows = 3000
	rel := testRelation(rows)

	// Fault-free reference blocks.
	ref := func() sketch.Blocks {
		srv := server.New(server.Config{ShardLanes: 4})
		if err := srv.Register(testRelation(rows)); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
			t.Fatal(err)
		}
		return srv.Catalog().Get("synthetic", "c1").Sketches
	}()
	refHLL, _ := ref.HLL().MarshalBinary()
	refWin, _ := ref.Window().MarshalBinary()

	profile, err := faults.ByName(faults.ProfileLaneFailureHeavy)
	if err != nil {
		t.Fatal(err)
	}
	cleanRuns, retiredRuns := 0, 0
	for seed := uint64(0); seed < 12; seed++ {
		srv := server.NewForTest(server.Config{
			Faults:        faults.New(seed, profile),
			ShardLanes:    4,
			PagesPerFrame: 2,
		}, server.TestConfig{SideStallTimeout: 50 * time.Millisecond})
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(srv)
		sum, err := c.Scan("synthetic", "c1", io.Discard)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if srv.Metrics().LanesRetired > 0 {
			retiredRuns++
		}
		cs := srv.Catalog().Get("synthetic", "c1")
		switch {
		case sum.Refreshed && !sum.Degraded:
			cleanRuns++
			if cs == nil || len(cs.Sketches) != 3 {
				t.Fatalf("seed %d: clean scan installed %d sketch blocks", seed, len(cs.Sketches))
			}
			gotHLL, _ := cs.Sketches.HLL().MarshalBinary()
			gotWin, _ := cs.Sketches.Window().MarshalBinary()
			if !bytes.Equal(gotHLL, refHLL) {
				t.Fatalf("seed %d: HLL drifted from fault-free run despite clean summary", seed)
			}
			if !bytes.Equal(gotWin, refWin) {
				t.Fatalf("seed %d: window drifted from fault-free run despite clean summary", seed)
			}
			ss := cs.Sketches.Heavy()
			if ss.Items() != rows {
				t.Fatalf("seed %d: heavy hitters consumed %d of %d rows", seed, ss.Items(), rows)
			}
			if n := len(ss.Top(0)); n > ss.Capacity() {
				t.Fatalf("seed %d: %d counters exceed capacity %d", seed, n, ss.Capacity())
			}
		case sum.Degraded && cs != nil:
			for _, b := range cs.Sketches {
				if !b.Degraded() {
					t.Fatalf("seed %d: degraded scan installed an unflagged %s sketch", seed, b.Name())
				}
			}
		}
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
	if cleanRuns == 0 {
		t.Skip("no clean run in the sweep; degradation honesty checked, identity untested")
	}
	if retiredRuns == 0 {
		t.Fatal("lane-failure-heavy never retired a lane — the test exercised nothing")
	}
}

// TestChaosSketchFaultPointsDegradeFailOpen: the corruption-heavy profile
// includes the sketch fault points; across seeds at least one block must
// come out Degraded, and a degraded sketch must never fail the scan or the
// STATS call — fail open, never fail the data path.
func TestChaosSketchFaultPointsDegradeFailOpen(t *testing.T) {
	profile, err := faults.ByName(faults.ProfileCorruptionHeavy)
	if err != nil {
		t.Fatal(err)
	}
	sawDegradedBlock := false
	for seed := uint64(0); seed < 10; seed++ {
		srv := server.New(server.Config{
			Faults:        faults.New(seed, profile),
			ShardLanes:    4,
			PagesPerFrame: 1,
		})
		if err := srv.Register(testRelation(3000)); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(srv)
		if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
			t.Fatalf("seed %d: scan failed outright: %v", seed, err)
		}
		if cs := srv.Catalog().Get("synthetic", "c1"); cs != nil {
			for _, b := range cs.Sketches {
				if b.Degraded() {
					sawDegradedBlock = true
				}
			}
			// A STATS call must serve whatever is there, degraded or not.
			if _, err := c.Stats("synthetic", "c1"); err != nil {
				t.Fatalf("seed %d: STATS failed with sketches in catalog: %v", seed, err)
			}
		}
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
	if !sawDegradedBlock {
		t.Fatal("corruption-heavy chaos never degraded a sketch block across 10 seeds")
	}
}
