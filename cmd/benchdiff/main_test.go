package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report fixtures")

func loadFixture(t *testing.T, name string) []Benchmark {
	t.Helper()
	benches, err := load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return benches
}

func parse(t *testing.T, text string) []Benchmark {
	t.Helper()
	benches, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return benches
}

func TestParse(t *testing.T) {
	const sample = `goos: linux
goarch: amd64
pkg: streamhist
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable1BinnerWorstCase-8   	     100	  11222333 ns/op	  20.01 sim-Mvals/s	  17.83 host-Mvals/s	 1696 B/op	       7 allocs/op
BenchmarkParallelDataPath/shards-4-8         	      10	 213590800 ns/op	  30.22 MB/s	       189.0 sim-Mvals/s	     79349 sim-cycles	 7333216 B/op	    1775 allocs/op
BenchmarkHistogramSerialization/marshal-8    	  353078	      3358 ns/op
PASS
ok  	streamhist	42.1s
`
	benches := parse(t, sample)
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benches))
	}

	b := benches[0]
	if b.Name != "BenchmarkTable1BinnerWorstCase-8" {
		t.Errorf("first bench name = %q", b.Name)
	}
	if b.Metrics["ns/op"] != 11222333 || b.Metrics["allocs/op"] != 7 {
		t.Errorf("standard metrics wrong: %v", b.Metrics)
	}
	if b.Metrics["sim-Mvals/s"] != 20.01 {
		t.Errorf("custom metric wrong: %v", b.Metrics)
	}

	sub := benches[1]
	if sub.Name != "BenchmarkParallelDataPath/shards-4-8" {
		t.Errorf("sub-benchmark name = %q", sub.Name)
	}
	if sub.Metrics["sim-cycles"] != 79349 || sub.Metrics["B/op"] != 7333216 {
		t.Errorf("sub-benchmark metrics wrong: %v", sub.Metrics)
	}

	bare := benches[2]
	if len(bare.Metrics) != 1 || bare.Metrics["ns/op"] != 3358 {
		t.Errorf("ns/op-only line wrong: %v", bare.Metrics)
	}
}

// TestCollapseMedians: -count repeats fold into one benchmark whose metrics
// are the per-metric medians, in first-seen order; a single run passes
// through untouched.
func TestCollapseMedians(t *testing.T) {
	benches := parse(t, `BenchmarkHot-4   100   300 ns/op   30.0 MB/s
BenchmarkCold-4   5   7 ns/op
BenchmarkHot-4   110   100 ns/op   90.0 MB/s
BenchmarkHot-4   90   200 ns/op   10.0 MB/s
`)
	if len(benches) != 2 {
		t.Fatalf("collapsed to %d benchmarks, want 2", len(benches))
	}
	hot := benches[0]
	if hot.Name != "BenchmarkHot-4" || hot.Metrics["ns/op"] != 200 || hot.Metrics["MB/s"] != 30 {
		t.Errorf("per-metric medians wrong: %+v", hot)
	}
	if benches[1].Metrics["ns/op"] != 7 {
		t.Errorf("single-run benchmark disturbed: %+v", benches[1])
	}
	even := parse(t, "BenchmarkEven-4 1 10 ns/op\nBenchmarkEven-4 1 20 ns/op\n")
	if got := even[0].Metrics["ns/op"]; got != 15 {
		t.Errorf("median of two = %v, want their mean 15", got)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	benches := parse(t, `random text
Benchmark       (sourceless header line)
BenchmarkBroken-8   notanumber   12 ns/op
BenchmarkOdd-8   10   12 ns/op   7
BenchmarkBadValue-8   10   twelve ns/op
--- FAIL: TestSomething
`)
	if len(benches) != 0 {
		t.Errorf("noise produced %d benchmarks: %+v", len(benches), benches)
	}
}

// TestDiffCleanHead: noise-level movement (−3% MB/s, +1% allocs) stays under
// the thresholds, and a benchmark that vanished from head is reported but is
// not by itself a failure. The base's nil lane is the median of three runs,
// one of them 18% slower.
func TestDiffCleanHead(t *testing.T) {
	c := Diff(loadFixture(t, "base.txt"), loadFixture(t, "head_ok.txt"))
	if c.Failed {
		t.Fatalf("clean head failed the gate:\n%s", c.Report(true))
	}
	if len(c.Missing) != 1 || c.Missing[0] != "BenchmarkVanished-4" {
		t.Errorf("missing = %v, want [BenchmarkVanished-4]", c.Missing)
	}
	var gated int
	for _, d := range c.Deltas {
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

// TestDiffNewInHead: a benchmark only the head ran — one a change adds to the
// gated set — is listed as new and ungated rather than dropped silently, and
// does not fail the diff.
func TestDiffNewInHead(t *testing.T) {
	c := Diff(loadFixture(t, "base.txt"), loadFixture(t, "head_ok.txt"))
	if len(c.New) != 1 || c.New[0] != "BenchmarkServedScan/raw-4" {
		t.Errorf("new = %v, want [BenchmarkServedScan/raw-4]", c.New)
	}
	for _, d := range c.Deltas {
		if d.Bench == "BenchmarkServedScan/raw-4" {
			t.Errorf("head-only benchmark compared: %+v", d)
		}
	}
	report := c.Report(false)
	if !strings.Contains(report, "+ BenchmarkServedScan/raw-4") || !strings.Contains(report, "new in head, not gated") {
		t.Errorf("report leaves out the new benchmark:\n%s", report)
	}
}

// TestDiffRegressedHead: a 15%+ nil-lane throughput drop and a tripled chain
// allocs/op must both trip, and nothing else.
func TestDiffRegressedHead(t *testing.T) {
	c := Diff(loadFixture(t, "base.txt"), loadFixture(t, "head_regressed.txt"))
	if !c.Failed {
		t.Fatalf("regressed head passed the gate:\n%s", c.Report(true))
	}
	want := map[string]string{
		"BenchmarkParallelDataPathSketch/nil-4":   "MB/s",
		"BenchmarkParallelDataPathSketch/chain-4": "allocs/op",
	}
	for _, d := range c.Deltas {
		if d.Regressed != (want[d.Bench] == d.Metric) {
			t.Errorf("regression flag wrong for %s %s: %+v", d.Bench, d.Metric, d)
		}
	}
}

// TestDiffThresholds pins both gates at their edges: a rate may fall until
// the base is 10% above the head, and a count may grow by 5%; one step past
// either fails. Nothing else is gated, whatever it does.
func TestDiffThresholds(t *testing.T) {
	for _, tc := range []struct {
		metric     string
		base, head float64
		fail       bool
	}{
		{"MB/s", 110, 100, false},
		{"MB/s", 111, 100, true},
		{"host-Mvals/s", 111, 100, true},
		{"allocs/op", 100, 105, false},
		{"allocs/op", 100, 106, true},
		{"writes/op", 100, 106, true},
		{"ns/op", 100, 1000, false},
		{"sim-sketch-cycles", 900000, 900001, false},
	} {
		base := []Benchmark{{Name: "B", Metrics: map[string]float64{tc.metric: tc.base}}}
		head := []Benchmark{{Name: "B", Metrics: map[string]float64{tc.metric: tc.head}}}
		if c := Diff(base, head); c.Failed != tc.fail {
			t.Errorf("%s %v -> %v: failed = %v, want %v", tc.metric, tc.base, tc.head, c.Failed, tc.fail)
		}
	}
}

// TestDiffZeroBaseAllocs: allocs/op going 0 → nonzero is an unbounded
// regression and must trip any finite threshold.
func TestDiffZeroBaseAllocs(t *testing.T) {
	base := []Benchmark{{Name: "B", Metrics: map[string]float64{"allocs/op": 0}}}
	head := []Benchmark{{Name: "B", Metrics: map[string]float64{"allocs/op": 3}}}
	if !Diff(base, head).Failed {
		t.Fatal("0 -> 3 allocs/op did not fail")
	}
}

// TestDiffChunkedWrites: BenchmarkServedScan's writes/op is a count, so a
// served scan going back to several socket writes per frame fails the diff,
// and one write per frame holding steady passes it.
func TestDiffChunkedWrites(t *testing.T) {
	bench := func(writes float64) []Benchmark {
		return []Benchmark{{
			Name:    "BenchmarkServedScan/raw-4",
			Metrics: map[string]float64{"writes/op": writes, "MB/s": 4000},
		}}
	}
	if Diff(bench(26), bench(26)).Failed {
		t.Fatal("steady writes/op failed the diff")
	}
	if !Diff(bench(26), bench(826)).Failed {
		t.Fatal("26 -> 826 writes/op passed the diff")
	}
}

// TestReportGolden pins the rendered report for the regressed fixture pair,
// so the output CI logs show stays reviewable. Regenerate with -update.
func TestReportGolden(t *testing.T) {
	got := Diff(loadFixture(t, "base.txt"), loadFixture(t, "head_regressed.txt")).Report(false)
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
