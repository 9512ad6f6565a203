// Command benchmark is the served-scan benchmark of record: it starts the
// histserved server on a loopback TCP listener, drives it with the real
// client from the same process, checks every reply, and prints every metric
// BENCHMARK.json declares. README.md has the workloads, the layer table and
// the caveats.
//
//	go run -C benchmark .                                   all workloads, run folder under benchmark/out/
//	go run -C benchmark . --workload raw-move --trace 0     one workload, end-to-end metrics
//	go run -C benchmark . compare a.json[,a2.json] b.json   two sets of runs against the bounds
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if len(args) > 0 && args[0] == "compare" {
		return compare(sp, args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload alone, in this process (default: all, one child process each)")
	seed := fs.Uint64("seed", 42, "seed of the generated relation")
	seconds := fs.Int("seconds", int(fullParams.window.Seconds()), "length of the timed window")
	trace := fs.Int("trace", 0, "1 adds the traced pass and the layer replay after the window and reports the per-layer metrics")
	out := fs.String("out", "", "directory for ops.csv, the results and the trace (default with no --workload: out/<UTC stamp>)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || fs.NArg() > 0 {
		return fmt.Errorf("usage: benchmark [--workload name] [--seed n] [--seconds n] [--trace 0|1] [--out dir] | compare a.json b.json")
	}
	p := fullParams
	p.window = time.Duration(*seconds) * time.Second
	if *name == "" {
		return runAll(sp, p, *seed, *out)
	}
	w, ok := workloadByName(*name)
	if !ok || !sp.hasWorkload(*name) {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runWorkload(sp, w, p, *seed, *trace == 1)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := res.writeFiles(*out); err != nil {
			return err
		}
	}
	res.print()
	// The driver's contract: the last line of standard output is one JSON
	// object; --trace picks which declared list it carries. A metric that
	// does not apply to the workload reads 0 there (null in layers.json).
	list := res.EndToEnd
	if *trace == 1 {
		list = res.PerLayer
	}
	metrics := make(map[string]map[string]any, len(list))
	for _, m := range list {
		v := 0.0
		if m.Value != nil {
			v = *m.Value
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func (res *result) print() {
	fmt.Printf("workload %s  seed %d  window %.0fs  GOMAXPROCS %d  nproc %d  lanes %d\n",
		res.Workload, res.Seed, res.WindowSeconds, maxProcs(), runtime.NumCPU(), lanes)
	show := func(title string, list []metric) {
		if len(list) == 0 {
			return
		}
		fmt.Println(title)
		for _, m := range list {
			val := "null"
			if m.Value != nil {
				val = strconv.FormatFloat(*m.Value, 'g', 6, 64)
			}
			n := ""
			if m.Samples > 0 {
				n = fmt.Sprintf("  (n=%d)", m.Samples)
			}
			fmt.Printf("  %-36s %14s %s%s\n", m.Name, val, m.Unit, n)
		}
	}
	show("end-to-end (untraced window):", res.EndToEnd)
	show("per-layer (traced pass and layer replay):", res.PerLayer)
	fmt.Printf("ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
}

var csvHeader = []string{"workload", "segment", "op", "start_ns", "latency_ns", "bytes", "ok"}

// writeFiles leaves one workload's share of a run folder in dir:
// <workload>.json, <workload>.ops.csv and, on a traced run,
// <workload>.trace.json.
func (res *result) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, res.Workload+".json"), raw, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.Workload+".ops.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	rows := [][]string{csvHeader}
	for _, o := range res.ops {
		rows = append(rows, []string{res.Workload, strconv.Itoa(o.segment), o.kind,
			strconv.FormatInt(o.start.UnixNano(), 10), strconv.FormatInt(o.latency.Nanoseconds(), 10),
			strconv.FormatInt(o.bytes, 10), strconv.FormatBool(o.ok)})
	}
	if err := cw.WriteAll(rows); err != nil { // WriteAll flushes
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if len(res.PerLayer) > 0 {
		return res.spans.writeTrace(filepath.Join(dir, res.Workload+".trace.json"))
	}
	return nil
}

// validateOps checks one workload's CSV before anything is summarised from
// it: the header, one row per attempted operation, failures matching the
// count, segments never going backwards. It returns the data rows.
func validateOps(path string, res *result) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 || strings.Join(rows[0], ",") != strings.Join(csvHeader, ",") {
		return nil, fmt.Errorf("%s: bad header", path)
	}
	rows = rows[1:]
	if len(rows) != res.Attempted {
		return nil, fmt.Errorf("%s: %d rows, ops_attempted %d", path, len(rows), res.Attempted)
	}
	prev, failed := -1, 0
	for i, r := range rows {
		seg, err := strconv.Atoi(r[1])
		if err != nil || r[0] != res.Workload {
			return nil, fmt.Errorf("%s: row %d: bad workload or segment", path, i+1)
		}
		if seg < prev {
			return nil, fmt.Errorf("%s: row %d: segment %d after %d", path, i+1, seg, prev)
		}
		prev = seg
		if r[6] != "true" {
			failed++
		}
	}
	if failed != res.Failed {
		return nil, fmt.Errorf("%s: %d failed rows, ops_failed %d", path, failed, res.Failed)
	}
	return rows, nil
}

// runAll is the full run: every workload in a re-exec'd child process of
// its own (clean heap, its own VmHWM), traced, into one run folder holding
// ops.csv, result.json, layers.json and <workload>.trace.json.
func runAll(sp *spec, p params, seed uint64, dir string) error {
	if dir == "" {
		dir = filepath.Join(scratchDir, time.Now().UTC().Format("20060102T150405Z"))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": maxProcs(), "go": runtime.Version(),
		"commit": gitCommit(), "seed": seed, "lanes": lanes,
		"transport":  "loopback (127.0.0.1 TCP inside the sandbox, not a link)",
		"durable_fs": fsType(scratchDir) + " (a directory under benchmark/out, not a device)",
	}
	var results []*result
	var allOps [][]string
	failed := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(int(p.window.Seconds())), "--trace", "1", "--out", dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		raw, err := os.ReadFile(filepath.Join(dir, w.name+".json"))
		if err != nil {
			return errors.Join(runErr, fmt.Errorf("%s left no result: %w", w.name, err))
		}
		res := new(result)
		if err := json.Unmarshal(raw, res); err != nil {
			return err
		}
		opsPath := filepath.Join(dir, w.name+".ops.csv")
		rows, err := validateOps(opsPath, res)
		if err != nil {
			return err
		}
		allOps = append(allOps, rows...)
		results = append(results, res)
		failed += res.Failed
		os.Remove(opsPath)
		os.Remove(filepath.Join(dir, w.name+".json"))
	}

	f, err := os.Create(filepath.Join(dir, "ops.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := csv.NewWriter(f).WriteAll(append([][]string{csvHeader}, allOps...)); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type layerDoc struct {
		Workload string   `json:"workload"`
		PerLayer []metric `json:"per_layer"`
	}
	var layerDocs []layerDoc
	for _, res := range results {
		layerDocs = append(layerDocs, layerDoc{res.Workload, res.PerLayer})
		res.PerLayer = nil
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), map[string]any{"env": env, "workloads": results}); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), map[string]any{"env": env, "workloads": layerDocs}); err != nil {
		return err
	}
	fmt.Println("run folder:", dir)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// gitCommit names the commit measured, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem under dir from its statfs magic.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("statfs type 0x%x", uint32(st.Type))
}
