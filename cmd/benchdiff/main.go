// Command benchdiff compares two benchjson artifacts (see cmd/benchjson)
// and fails when the head run regressed past configurable thresholds. It is
// the decision half of the CI perf gate:
//
//	benchdiff -base base.json -head head.json \
//	    -max-throughput-drop 10 -max-allocs-growth 5
//
// Three metric families are gated, matching what is trustworthy where:
//
//   - simulated cycle counts (exactMetrics) — deterministic functions of the
//     input, so base and head must agree to the unit, on any runner; a host
//     optimisation that moves one has changed the model, not the speed.
//   - allocs/op and writes/op growth — machine-independent (the allocator
//     and BenchmarkServedScan's connection wrapper count, the hardware
//     doesn't), so they are gated everywhere, any runner.
//   - throughput drop (MB/s and every other */s rate) — only meaningful when
//     base and head ran on the same machine back to back; the CI job
//     guarantees that by benchmarking the merge base and the head in one
//     job, and passes -gate-throughput to say so. Without the flag, rates
//     are reported but never fail the diff.
//
// Everything else (ns/op, B/op, custom counters) is printed for the reader
// and never gated. Exit status: 0 clean, 1 regression, 2 usage/IO error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Benchmark and File mirror cmd/benchjson's output document.
type Benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is one parsed benchjson artifact.
type File struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Thresholds configures what counts as a regression, in percent. A zero
// threshold disables that family's gate.
type Thresholds struct {
	// MaxThroughputDropPct gates every higher-is-better */s rate.
	MaxThroughputDropPct float64
	// MaxAllocsGrowthPct gates allocs/op and writes/op.
	MaxAllocsGrowthPct float64
	// GateThroughput asserts base and head ran on the same machine, making
	// wall-clock rates comparable. Off, rates are informational.
	GateThroughput bool
}

// exactMetrics are compared for equality, not against a threshold.
var exactMetrics = map[string]bool{
	// BenchmarkParallelDataPathSketch/chain: Σ items·cycles-per-value, whether
	// a block streamed its values or only booked them.
	"sim-sketch-cycles": true,
}

// Delta is one compared metric of one benchmark.
type Delta struct {
	Bench, Metric string
	Base, Head    float64
	// Pct is the signed change in the unfavourable direction: throughput
	// drop or allocation growth, positive = worse.
	Pct       float64
	Gated     bool
	Regressed bool
}

// Diff compares every metric present in both files, benchmark by benchmark.
// It returns the per-metric deltas (stable order: benchmark, then metric),
// the names of base benchmarks missing from head, and whether any gated
// metric regressed past its threshold.
func Diff(base, head *File, th Thresholds) (deltas []Delta, missing []string, failed bool) {
	headBy := make(map[string]Benchmark, len(head.Benchmarks))
	for _, b := range head.Benchmarks {
		headBy[b.Name] = b
	}
	for _, b := range base.Benchmarks {
		h, ok := headBy[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		metrics := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			if _, ok := h.Metrics[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			d := compare(b.Name, m, b.Metrics[m], h.Metrics[m], th)
			failed = failed || d.Regressed
			deltas = append(deltas, d)
		}
	}
	return deltas, missing, failed
}

// compare classifies one metric and scores its change.
func compare(bench, metric string, base, head float64, th Thresholds) Delta {
	d := Delta{Bench: bench, Metric: metric, Base: base, Head: head}
	switch {
	case exactMetrics[metric]:
		d.Pct = growthPct(base, head)
		d.Regressed = base != head
	case metric == "allocs/op", metric == "writes/op":
		d.Gated = th.MaxAllocsGrowthPct > 0
		d.Pct = growthPct(base, head)
		d.Regressed = d.Gated && d.Pct > th.MaxAllocsGrowthPct
	case strings.HasSuffix(metric, "/s"):
		// Higher is better: the regression is a drop.
		d.Gated = th.GateThroughput && th.MaxThroughputDropPct > 0
		d.Pct = growthPct(head, base) // how much taller base is than head
		d.Regressed = d.Gated && d.Pct > th.MaxThroughputDropPct
	default:
		d.Pct = growthPct(base, head)
	}
	return d
}

// growthPct returns how much head exceeds base, in percent of base. A zero
// base with a nonzero head is an unbounded regression, reported as +inf so
// any finite threshold trips.
func growthPct(base, head float64) float64 {
	if base == head {
		return 0
	}
	if base == 0 {
		if head > 0 {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return (head - base) / base * 100
}

// Report renders the deltas as an aligned table, regressions marked. When
// verbose is false only gated metrics (and regressions) are listed.
func Report(deltas []Delta, missing []string, verbose bool) string {
	var sb strings.Builder
	for _, d := range deltas {
		if !verbose && !d.Gated && !d.Regressed {
			continue
		}
		mark := " "
		switch {
		case d.Regressed:
			mark = "✗"
		case d.Gated:
			mark = "✓"
		}
		fmt.Fprintf(&sb, "%s %-60s %-16s %14.4g -> %-14.4g %+7.2f%%\n",
			mark, d.Bench, d.Metric, d.Base, d.Head, d.Pct)
	}
	for _, name := range missing {
		fmt.Fprintf(&sb, "! %-60s missing from head artifact\n", name)
	}
	return sb.String()
}

func main() {
	basePath := flag.String("base", "", "baseline benchjson artifact")
	headPath := flag.String("head", "", "candidate benchjson artifact")
	maxDrop := flag.Float64("max-throughput-drop", 10,
		"max % drop in any */s rate before failing (0 disables)")
	maxAllocs := flag.Float64("max-allocs-growth", 5,
		"max % growth in allocs/op or writes/op before failing (0 disables)")
	gateThroughput := flag.Bool("gate-throughput", false,
		"base and head ran on the same machine: gate */s rates, not just report them")
	verbose := flag.Bool("v", false, "print ungated metrics too")
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -head are required")
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	head, err := load(*headPath)
	if err != nil {
		fatal(err)
	}
	th := Thresholds{
		MaxThroughputDropPct: *maxDrop,
		MaxAllocsGrowthPct:   *maxAllocs,
		GateThroughput:       *gateThroughput,
	}
	deltas, missing, failed := Diff(base, head, th)
	if len(deltas) == 0 && len(missing) == 0 {
		fatal(fmt.Errorf("no benchmarks in common between %s and %s", *basePath, *headPath))
	}
	os.Stdout.WriteString(Report(deltas, missing, *verbose))
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: FAIL — regression past threshold")
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}

func load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
