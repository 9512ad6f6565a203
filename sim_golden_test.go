package streamhist_test

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateSim = flag.Bool("update", false, "rewrite testdata/sim.golden")

// The simulated figures are the reproduction: Table 1's binner rates, Table 2
// and Fig 22's cycle counts, the scale-up and region timelines, and the
// sharded path's critical path, sketch, fan-in and chain cycles are exact
// functions of the model and its inputs, the same on any host. This test runs
// every benchmark of the package once, in a child run of this test binary, and
// compares every sim-* metric they report, as printed, with a committed
// golden. A change that moves one has changed the model, not the speed.
// Regenerate with -update.
func TestSimGolden(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cmd := exec.Command(os.Args[0], "-test.run=^$", "-test.bench=.", "-test.benchtime=1x",
		fmt.Sprintf("-test.cpu=%d", procs))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark run: %v\n%s", err, out)
	}
	got := simMetrics(string(out), procs)
	if got == "" {
		t.Fatalf("benchmark run reported no sim-* metric:\n%s", out)
	}

	golden := filepath.Join("testdata", "sim.golden")
	if *updateSim {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotBy := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		key, v := splitSimLine(line)
		gotBy[key] = v
	}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		key, w := splitSimLine(line)
		switch g, ok := gotBy[key]; {
		case !ok:
			t.Errorf("%s: golden %s, no longer reported", key, w)
		case g != w:
			t.Errorf("%s: golden %s, got %s", key, w, g)
		}
		delete(gotBy, key)
	}
	for key, g := range gotBy {
		t.Errorf("%s: got %s, not in the golden", key, g)
	}
}

// simMetrics picks every sim-* metric out of `go test -bench` output, one
// "<benchmark> <unit> <value>" line each in run order, with the benchmark
// name's -<GOMAXPROCS> suffix stripped.
func simMetrics(out string, procs int) string {
	suffix := fmt.Sprintf("-%d", procs)
	var sb strings.Builder
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if procs > 1 {
			name = strings.TrimSuffix(name, suffix)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if strings.HasPrefix(fields[i+1], "sim-") {
				fmt.Fprintf(&sb, "%s %s %s\n", name, fields[i+1], fields[i])
			}
		}
	}
	return sb.String()
}

// splitSimLine splits one line of simMetrics' output into "<benchmark>
// <unit>" and the value.
func splitSimLine(line string) (key, value string) {
	i := strings.LastIndexByte(line, ' ')
	return line[:max(i, 0)], line[i+1:]
}
