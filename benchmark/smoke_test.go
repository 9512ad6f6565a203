package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// quickParams is the smoke test's entry point into the harness: the same
// code path as a real run, sized to finish in seconds. It is not reachable
// from the command line, so no flag can change what the real run measures.
var quickParams = params{
	rows: 20_000, window: time.Second, segments: 5, setups: 1,
	warmups: 4, tracedScans: 3, replayReps: 1, postScans: 5,
}

func sameDecls(t *testing.T, kind string, got []metric, want []metricDecl) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics emitted, %d declared", kind, len(got), len(want))
	}
	for i, d := range want {
		if got[i].Name != d.Name || got[i].Unit != d.Unit {
			t.Errorf("%s[%d]: emitted %s [%s], declared %s [%s]", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
		}
	}
}

// TestSmoke runs all four workloads, traced, in the quick mode and holds the
// harness to BENCHMARK.json: the same workloads, every declared metric once
// with its declared unit and no other, no failed operation, a valid ops.csv.
// It then feeds the results to compare, which must pass a run against
// itself and fail it against a copy made worse than a bound allows.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end; skipped under -short")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	dir := t.TempDir()
	var results []*result
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the harness %q", i, sp.Workloads[i].Name, w.name)
		}
		res, err := runWorkload(sp, w, quickParams, 42, true)
		if err != nil {
			t.Fatal(err)
		}
		sameDecls(t, w.name+" end_to_end", res.EndToEnd, sp.EndToEnd)
		sameDecls(t, w.name+" per_layer", res.PerLayer, sp.PerLayer)
		for _, m := range res.EndToEnd {
			if m.Value == nil || *m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is not a positive number", w.name, m.Name)
			}
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: ops_failed %d of %d attempted", w.name, res.Failed, res.Attempted)
		}
		if err := res.writeFiles(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := validateOps(filepath.Join(dir, w.name+".ops.csv"), res); err != nil {
			t.Error(err)
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+".trace.json")); err != nil {
			t.Error(err)
		}
		results = append(results, res)
	}

	write := func(name string, rs []*result) string {
		raw, err := json.Marshal(map[string]any{"workloads": rs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", results)
	if err := compare(sp, []string{base, base + "," + base}); err != nil {
		t.Errorf("a run compared with itself: %v", err)
	}
	for _, m := range results[0].EndToEnd {
		if m.Name == "scan_p50_ms" {
			*m.Value *= 1.5
		}
	}
	if err := compare(sp, []string{base, write("b.json", results)}); err == nil {
		t.Error("compare accepted a scan_p50_ms 50% worse than the baseline")
	}
}
