// Command benchdiff is the decision half of the perf gate: it compares two
// `go test -bench` text outputs, a base run and a head run made back to back
// on one machine, and fails when the head regressed.
//
//	benchdiff -base perf_base.txt -head perf_head.txt
//
// Repeats of one benchmark (-count=N) collapse to per-metric medians, so one
// descheduled run can neither fake nor mask a regression. Two metric families
// are gated:
//
//   - allocs/op and writes/op growth past 5 % — counts the allocator and
//     BenchmarkServedScan's connection wrapper make, not times.
//   - a drop past 10 % in MB/s or any other */s rate — comparable only
//     because both runs share a machine, which `make perf-bench` on both
//     sides of one job guarantees.
//
// Everything else (ns/op, B/op, custom counters) is printed with -v and never
// gated; the simulated sim-* figures are exact, and TestSimGolden pins every
// one of them. A benchmark only the base ran is listed as missing, one only
// the head ran as new; neither fails the diff. Exit status: 0 clean,
// 1 regression, 2 usage or I/O error.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The gate's thresholds, in percent.
const (
	maxAllocsGrowthPct   = 5
	maxThroughputDropPct = 10
)

// Benchmark is one benchmark's result: per-metric medians over its repeats.
type Benchmark struct {
	Name    string
	Metrics map[string]float64
}

// Parse reads `go test -bench` output and returns its benchmarks in the order
// they first ran, each with its repeats collapsed to per-metric medians.
// Lines that are not result lines are ignored.
func Parse(r io.Reader) ([]Benchmark, error) {
	var order []string
	runs := make(map[string][]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, metrics, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if _, seen := runs[name]; !seen {
			order = append(order, name)
		}
		runs[name] = append(runs[name], metrics)
	}
	out := make([]Benchmark, len(order))
	for i, name := range order {
		b := Benchmark{Name: name, Metrics: make(map[string]float64)}
		for unit := range runs[name][0] {
			var vals []float64
			for _, m := range runs[name] {
				if v, ok := m[unit]; ok {
					vals = append(vals, v)
				}
			}
			b.Metrics[unit] = median(vals)
		}
		out[i] = b
	}
	return out, sc.Err()
}

// parseLine splits one result line: name, iteration count, then value/unit
// pairs.
//
//	BenchmarkFoo/sub-8   10   213590800 ns/op   30.22 MB/s   1775 allocs/op
func parseLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, false
	}
	metrics := make(map[string]float64, len(fields)/2-1)
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	return fields[0], metrics, true
}

// median returns the middle value (mean of the middle two for even counts).
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
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

// Comparison is the outcome of one Diff.
type Comparison struct {
	// Deltas holds every metric both runs report, in base order, then by
	// metric name.
	Deltas []Delta
	// Missing names the base's benchmarks the head did not run; New names
	// the head's benchmarks the base did not run.
	Missing, New []string
	// Failed reports whether any gated metric regressed past its threshold.
	Failed bool
}

// Diff compares every metric present in both runs, benchmark by benchmark.
func Diff(base, head []Benchmark) Comparison {
	var c Comparison
	headBy := make(map[string]Benchmark, len(head))
	for _, b := range head {
		headBy[b.Name] = b
	}
	for _, b := range base {
		h, ok := headBy[b.Name]
		if !ok {
			c.Missing = append(c.Missing, b.Name)
			continue
		}
		delete(headBy, b.Name)
		metrics := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			if _, ok := h.Metrics[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			d := compare(b.Name, m, b.Metrics[m], h.Metrics[m])
			c.Failed = c.Failed || d.Regressed
			c.Deltas = append(c.Deltas, d)
		}
	}
	for _, b := range head {
		if _, ok := headBy[b.Name]; ok {
			c.New = append(c.New, b.Name)
		}
	}
	return c
}

// compare classifies one metric and scores its change.
func compare(bench, metric string, base, head float64) Delta {
	d := Delta{Bench: bench, Metric: metric, Base: base, Head: head}
	switch {
	case metric == "allocs/op", metric == "writes/op":
		d.Gated = true
		d.Pct = growthPct(base, head)
		d.Regressed = d.Pct > maxAllocsGrowthPct
	case strings.HasSuffix(metric, "/s"):
		// Higher is better: the regression is a drop.
		d.Gated = true
		d.Pct = growthPct(head, base) // how much taller base is than head
		d.Regressed = d.Pct > maxThroughputDropPct
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

// Report renders the comparison as an aligned table, regressions marked.
// When verbose is false only gated metrics are listed.
func (c Comparison) Report(verbose bool) string {
	var sb strings.Builder
	for _, d := range c.Deltas {
		if !verbose && !d.Gated {
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
	for _, name := range c.Missing {
		fmt.Fprintf(&sb, "! %-60s missing from head\n", name)
	}
	for _, name := range c.New {
		fmt.Fprintf(&sb, "+ %-60s new in head, not gated\n", name)
	}
	return sb.String()
}

func main() {
	basePath := flag.String("base", "", "file holding the base run's go test -bench output")
	headPath := flag.String("head", "", "file holding the head run's go test -bench output")
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
	c := Diff(base, head)
	os.Stdout.WriteString(c.Report(*verbose))
	if c.Failed {
		fmt.Fprintln(os.Stderr, "benchdiff: FAIL — regression past threshold")
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}

// load parses one run's output; a file with no result line is an error, so a
// run that failed to build or matched no benchmark cannot pass the gate.
func load(path string) ([]Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	benches, err := Parse(f)
	if err == nil && len(benches) == 0 {
		err = errors.New("no benchmark result lines")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return benches, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
