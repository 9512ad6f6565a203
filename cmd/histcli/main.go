// Command histcli computes histograms over a column of integers, the way
// the accelerator would as the data streamed by. Input is a text file (or
// stdin) with one integer per line.
//
//	histcli -kind equidepth -buckets 16 values.txt
//	histcli -kind all -topk 10 < values.txt
//
// The output lists each bucket's range, row count, and distinct count, plus
// the simulated on-accelerator timing.
//
// The `metrics` subcommand instead scrapes a running histserved's
// introspection endpoint and pretty-prints its /metrics exposition and the
// most recent scan traces:
//
//	histcli metrics -addr localhost:7745 -scans 5
//	histcli metrics -addr localhost:7745 -check    # fail on malformed lines
//	histcli metrics -addr localhost:7745 -grep hwprof
//
// The `profile` subcommand fetches the simulated-hardware cycle profile a
// running histserved accumulates (see internal/hwprof) and renders it, or
// saves the pprof protobuf for `go tool pprof`:
//
//	histcli profile -addr localhost:7745 -top 20
//	histcli profile -addr localhost:7745 -tree
//	histcli profile -addr localhost:7745 -o hwprof.pb.gz
//
// The `top` subcommand is a live terminal dashboard over the server's
// /timeline endpoint: one sparkline per metric at the chosen resolution,
// redrawn every interval, newest window on the right:
//
//	histcli top -addr localhost:7745
//	histcli top -addr localhost:7745 -res 10s -metrics streamhist_server_bytes_moved_total
//	histcli top -addr localhost:7745 -n 1      # one frame, CI-friendly
//
// The `trace` subcommand fetches one assembled distributed trace (originate
// with `histserved scan -trace`) and renders it as a terminal waterfall, or
// exports/validates the Chrome trace-event JSON for Perfetto:
//
//	histcli trace -addr localhost:7745 3c5f9a2b41d07e68
//	histcli trace -addr localhost:7745 -tracez -o trace.json 3c5f9a2b41d07e68
//	histcli trace -addr localhost:7745 -check 3c5f9a2b41d07e68   # CI gate
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/hist"
	"streamhist/internal/sketch"
)

// subcommands are the clients of a running histserved's introspection
// endpoint (-metrics-addr); without one, histcli bins its input.
var subcommands = map[string]func(args []string) error{
	"metrics": runMetrics,
	"profile": runProfile,
	"top":     runTop,
	"trace":   runTrace,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			if err := run(os.Args[2:]); err != nil {
				fatalf("%s: %v", os.Args[1], err)
			}
			return
		}
	}
	kind := flag.String("kind", "all", "histogram kind: equidepth, maxdiff, compressed, topk, all")
	buckets := flag.Int("buckets", 16, "number of buckets (B)")
	topk := flag.Int("topk", 8, "frequency-list length (T)")
	divisor := flag.Int64("divisor", 1, "bin divisor (values per bin)")
	sketches := flag.Bool("sketch", false, "also run the sketch chain (HLL NDV, heavy hitters, sliding window)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: histcli [flags] [file]")
		fmt.Fprintln(os.Stderr, "       histcli metrics [-addr host:port] [-scans K] [-check] [-grep pattern]")
		fmt.Fprintln(os.Stderr, "       histcli profile [-addr host:port] [-seconds N] [-top N | -tree | -o file]")
		fmt.Fprintln(os.Stderr, "       histcli top     [-addr host:port] [-res R] [-interval D] [-n K] [-metrics a,b]")
		fmt.Fprintln(os.Stderr, "       histcli trace   [-addr host:port] [-tracez] [-check] [-o file] <trace-id>")
		flag.PrintDefaults()
	}
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}
	values, err := readValues(in)
	if err != nil {
		fatalf("reading input: %v", err)
	}
	if len(values) == 0 {
		fatalf("no values in input")
	}

	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	cfg := core.DefaultConfig(core.ColumnSpec{}, min, max)
	cfg.Divisor = *divisor
	cfg.TopK = *topk
	cfg.EquiDepthBuckets = *buckets
	cfg.MaxDiffBuckets = *buckets
	cfg.CompressedT = *topk
	cfg.CompressedBuckets = *buckets
	if *sketches {
		cfg.Binner.Sketches = sketch.NewChain(sketch.DefaultChainSpec())
	}
	circuit, err := core.NewCircuit(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	res := circuit.ProcessValues(values)

	switch strings.ToLower(*kind) {
	case "equidepth":
		printHistogram("Equi-depth", res.EquiDepth)
	case "maxdiff":
		printHistogram("Max-diff", res.MaxDiff)
	case "compressed":
		printHistogram("Compressed", res.Compressed)
	case "topk":
		printTopK(res.TopK)
	case "all":
		printTopK(res.TopK)
		printHistogram("Equi-depth", res.EquiDepth)
		printHistogram("Max-diff", res.MaxDiff)
		printHistogram("Compressed", res.Compressed)
	default:
		fatalf("unknown kind %q", *kind)
	}

	printSketches(res.Sketches)

	fmt.Printf("\n%d values, %d distinct, %d bins in memory\n",
		res.Bins.Total(), res.Bins.Cardinality(), res.Bins.NumBins())
	fmt.Printf("simulated accelerator time: %.3fms binning + %.3fms histograms (cache hit rate %.0f%%)\n",
		res.BinningSeconds*1e3, res.HistogramSeconds*1e3,
		100*float64(res.BinnerStats.CacheHits)/float64(res.BinnerStats.CacheHits+res.BinnerStats.CacheMisses))
	if res.SketchCycles > 0 {
		fmt.Printf("sketch chain: %d cycles (%.3fms) riding the same stream\n",
			res.SketchCycles, res.SketchSeconds*1e3)
	}
}

func printSketches(blocks sketch.Blocks) {
	if len(blocks) == 0 {
		return
	}
	fmt.Println("\nSketches (side effects of the same pass):")
	if hll := blocks.HLL(); hll != nil {
		fmt.Printf("  ndv ≈ %.0f (HLL precision %d, %d values)\n",
			hll.Estimate(), hll.Precision(), hll.Items())
	}
	if ss := blocks.Heavy(); ss != nil {
		for i, hh := range ss.Top(8) {
			fmt.Printf("  heavy #%-2d value %-12d count %d (%s)\n",
				i+1, hh.Value, hh.Count, hh.Accuracy())
		}
	}
	if w := blocks.Window(); w != nil {
		agg := w.Aggregate()
		fmt.Printf("  window(last %d): count %d sum %d min %d max %d\n",
			w.W(), agg.Count, agg.Sum, agg.Min, agg.Max)
	}
}

func readValues(r io.Reader) ([]int64, error) {
	var out []int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func printHistogram(name string, h *hist.Histogram) {
	fmt.Printf("\n%s (%d buckets", name, len(h.Buckets))
	if len(h.Frequent) > 0 {
		fmt.Printf(", %d exact frequent values", len(h.Frequent))
	}
	fmt.Println("):")
	for _, f := range h.Frequent {
		fmt.Printf("  value %-12d count %d (exact)\n", f.Value, f.Count)
	}
	for _, b := range h.Buckets {
		fmt.Printf("  [%d .. %d]  count %-10d distinct %d\n", b.Low, b.High, b.Count, b.Distinct)
	}
}

func printTopK(top []hist.FrequentValue) {
	fmt.Printf("\nTopK (%d entries):\n", len(top))
	for i, f := range top {
		fmt.Printf("  #%-3d value %-12d count %d\n", i+1, f.Value, f.Count)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "histcli: "+format+"\n", args...)
	os.Exit(1)
}

// addrFlag declares the -addr flag every introspection subcommand takes.
func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "localhost:7745", "server introspection address (histserved -metrics-addr)")
}

// endpoint is the one fetch path of the introspection subcommands: a
// histserved -metrics-addr ("host:port" or a URL) and the client that asks it.
type endpoint struct {
	base string
	hc   *http.Client
}

func newEndpoint(addr string, timeout time.Duration) endpoint {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return endpoint{base: addr, hc: &http.Client{Timeout: timeout}}
}

// get fetches path and returns the body, failing on any answer but 200.
func (e endpoint) get(path string) ([]byte, error) {
	u := e.base + path
	resp, err := e.hc.Get(u)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// getJSON fetches path and decodes its JSON body into v.
func (e endpoint) getJSON(path string, v any) error {
	body, err := e.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
