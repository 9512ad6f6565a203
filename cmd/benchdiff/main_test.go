package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report fixtures")

func loadFixture(t *testing.T, name string) *File {
	t.Helper()
	f, err := load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func gateAll() Thresholds {
	return Thresholds{MaxThroughputDropPct: 10, MaxAllocsGrowthPct: 5, GateThroughput: true}
}

// TestDiffCleanHead: noise-level movement (−3% MB/s, +1% allocs) stays under
// the default thresholds, and a benchmark that vanished from head is
// reported but is not by itself a failure.
func TestDiffCleanHead(t *testing.T) {
	deltas, missing, failed := Diff(loadFixture(t, "base.json"), loadFixture(t, "head_ok.json"), gateAll())
	if failed {
		t.Fatalf("clean head failed the gate:\n%s", Report(deltas, missing, true))
	}
	if len(missing) != 1 || missing[0] != "BenchmarkVanished" {
		t.Errorf("missing = %v, want [BenchmarkVanished]", missing)
	}
	var gated int
	for _, d := range deltas {
		if d.Gated {
			gated++
		}
		if d.Regressed {
			t.Errorf("unexpected regression: %+v", d)
		}
	}
	// MB/s ×2 and allocs/op ×2 across the two shared benchmarks.
	if gated != 4 {
		t.Errorf("gated %d metrics, want 4", gated)
	}
}

// TestDiffRegressedHead: a 15%+ nil-lane throughput drop and a tripled chain
// allocs/op must both trip, and nothing else.
func TestDiffRegressedHead(t *testing.T) {
	deltas, missing, failed := Diff(loadFixture(t, "base.json"), loadFixture(t, "head_regressed.json"), gateAll())
	if !failed {
		t.Fatalf("regressed head passed the gate:\n%s", Report(deltas, missing, true))
	}
	want := map[string]string{
		"BenchmarkParallelDataPathSketch/nil-4":   "MB/s",
		"BenchmarkParallelDataPathSketch/chain-4": "allocs/op",
	}
	for _, d := range deltas {
		if d.Regressed != (want[d.Bench] == d.Metric) {
			t.Errorf("regression flag wrong for %s %s: %+v", d.Bench, d.Metric, d)
		}
	}
}

// TestDiffThroughputUngatedOffRunner: without -gate-throughput (artifacts
// from different machines) the same 15% drop is informational only; the
// allocs gate still applies.
func TestDiffThroughputUngatedOffRunner(t *testing.T) {
	th := gateAll()
	th.GateThroughput = false
	deltas, _, failed := Diff(loadFixture(t, "base.json"), loadFixture(t, "head_regressed.json"), th)
	if !failed {
		t.Fatal("allocs/op regression must fail even off-runner")
	}
	for _, d := range deltas {
		if d.Metric == "MB/s" && (d.Gated || d.Regressed) {
			t.Errorf("MB/s gated off-runner: %+v", d)
		}
	}
}

// TestDiffZeroBaseAllocs: allocs/op going 0 → nonzero is an unbounded
// regression and must trip any finite threshold.
func TestDiffZeroBaseAllocs(t *testing.T) {
	base := &File{Benchmarks: []Benchmark{{Name: "B", Metrics: map[string]float64{"allocs/op": 0}}}}
	head := &File{Benchmarks: []Benchmark{{Name: "B", Metrics: map[string]float64{"allocs/op": 3}}}}
	_, _, failed := Diff(base, head, gateAll())
	if !failed {
		t.Fatal("0 -> 3 allocs/op did not fail")
	}
}

// TestDiffChunkedWrites: BenchmarkServedScan's writes/op is a count, so a
// served scan going back to several socket writes per frame fails the diff
// off-runner too, and one write per frame holding steady passes it.
func TestDiffChunkedWrites(t *testing.T) {
	bench := func(writes float64) *File {
		return &File{Benchmarks: []Benchmark{{
			Name:    "BenchmarkServedScan/raw-4",
			Metrics: map[string]float64{"writes/op": writes, "MB/s": 4000},
		}}}
	}
	th := gateAll()
	th.GateThroughput = false
	if _, _, failed := Diff(bench(26), bench(26), th); failed {
		t.Fatal("steady writes/op failed the diff")
	}
	if _, _, failed := Diff(bench(26), bench(826), th); !failed {
		t.Fatal("26 -> 826 writes/op passed the diff")
	}
}

// TestDiffExactSimCycles:a simulated cycle count is a property of the model,
// not of the runner, so one cycle of drift fails the diff with every
// threshold off, and shows in the short report.
func TestDiffExactSimCycles(t *testing.T) {
	bench := func(cycles float64) *File {
		return &File{Benchmarks: []Benchmark{{
			Name:    "BenchmarkParallelDataPathSketch/chain-4",
			Metrics: map[string]float64{"sim-sketch-cycles": cycles, "ns/op": 1},
		}}}
	}
	if _, _, failed := Diff(bench(900000), bench(900000), Thresholds{}); failed {
		t.Fatal("equal sim-sketch-cycles failed the diff")
	}
	deltas, _, failed := Diff(bench(900000), bench(900001), Thresholds{})
	if !failed {
		t.Fatal("900000 -> 900001 sim-sketch-cycles passed the diff")
	}
	if got := Report(deltas, nil, false); !strings.Contains(got, "sim-sketch-cycles") {
		t.Fatalf("short report hides the drift:\n%s", got)
	}
}

// TestReportGolden pins the rendered report for the regressed fixture pair,
// so the output CI logs show stays reviewable. Regenerate with -update.
func TestReportGolden(t *testing.T) {
	deltas, missing, _ := Diff(loadFixture(t, "base.json"), loadFixture(t, "head_regressed.json"), gateAll())
	got := Report(deltas, missing, false)
	golden := filepath.Join("testdata", "report_regressed.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
