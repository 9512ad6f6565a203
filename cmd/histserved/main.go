// Command histserved runs (and talks to) the network scan service that
// computes histograms as a side effect of serving pages.
//
//	histserved serve  -addr :7744 -rows 200000          # serve demo tables
//	histserved tables -addr localhost:7744              # list what's served
//	histserved scan   -addr localhost:7744 lineitem l_extendedprice
//	histserved stats  -addr localhost:7744 lineitem l_extendedprice
//
// `serve` registers two demo relations — a TPC-H-shaped lineitem sample and
// a Zipf-skewed synthetic table — and streams their raw pages to any number
// of concurrent clients. Every served scan refreshes the server's catalog
// histograms for free; `stats` fetches the freshest one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"path/filepath"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/obs/timeline"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "scan":
		err = runScan(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "tables":
		err = runTables(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "histserved: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "histserved:", err)
		os.Exit(1)
	}
}

func usage() { fmt.Fprintln(os.Stderr, usageText) }

const usageText = `usage:
  histserved serve  [-addr :7744] [-rows N] [-seed S] [-workers N] [-lanes N]
                    [-chaos profile] [-chaos-seed S] [-metrics-addr host:port]
                    [-sketch-ndv p] [-sketch-k K] [-sketch-window W]
                    [-no-sketch] [-data-dir DIR] [-checkpoint-interval D]
                    [-bundle-dir DIR]
  histserved tables [-addr host:port]                   list served tables
  histserved scan   [-addr host:port] [-o file] [-trace] <table> <column>
  histserved stats  [-addr host:port] <table> <column>

scan -trace originates a distributed trace: the trace id rides the request
frame, the server continues the trace, and the client ships its spans back
on scan close. The printed id is fetchable as an assembled span tree at
/traces?id= and as Perfetto-loadable JSON at /debug/tracez?id= on the
server's -metrics-addr.

-metrics-addr exposes live introspection over HTTP: /metrics (Prometheus
text, with trace-id exemplars on distribution tails), /scans (recent scan
traces as JSON), /traces (assembled distributed traces by id), /debug/tracez
(Chrome trace-event JSON for Perfetto), /events (the last 1024 tail-sampled
scan records: every anomalous scan, one healthy scan in four), /timeline
(multi-resolution metrics history: 1s x 120, 10s x 360, 5m x 288),
/anomalies (detector trips), /healthz, /debug/hwprof (simulated-hardware
cycle profile in pprof format), /debug/pprof/*.

-bundle-dir is where anomaly trips drop self-contained debug bundles
(timeline slice + events + pprof profiles), defaulting to <data-dir>/bundles.

-workers bounds how many scans run a statistics side path at once; a scan
arriving while all are busy streams its pages and skips the refresh.

-lanes fixes the side-path fan-out (parallel Parser+Binner lanes per scan);
with -lanes 1 the profile total equals the accel-cycles counter exactly.

-sketch-ndv/-sketch-k/-sketch-window shape the sketch chain every served
scan runs beside the histogram (HyperLogLog precision, heavy-hitter
counters, sliding-window width); -no-sketch disables the chain.

-data-dir makes the stats catalog durable: crash recovery runs before the
listener opens (newest checksummed checkpoint + WAL replay), mutations are journaled
write-ahead, and in-flight scans survive kill -9 via server-side resume.
-checkpoint-interval tunes the background checkpoint cadence. Without -data-dir
the catalog is ephemeral (bit-identical wire behavior).

chaos profiles (deterministic fault injection; for testing the fail-open
posture — never enable in production): corruption-heavy, lane-failure-heavy,
network-flaky, disk-failure-heavy`

// checkSketchFlags refuses a sketch chain the server would build but could
// not serve: a HyperLogLog precision outside 4..16, or a heavy-hitter or
// window block that alone outgrows one frame (24 B per counter and 16 B per
// window value when encoded). Zero keeps the default.
func checkSketchFlags(ndv, k, w int) error {
	maxK, maxW := server.MaxPayload/24, server.MaxPayload/16
	switch {
	case ndv != 0 && (ndv < 4 || ndv > 16):
		return fmt.Errorf("-sketch-ndv %d: precision must be 4..16", ndv)
	case k < 0 || k > maxK:
		return fmt.Errorf("-sketch-k %d: the counters must fit one %d-byte frame (at most %d)", k, server.MaxPayload, maxK)
	case w < 0 || w > maxW:
		return fmt.Errorf("-sketch-window %d: the window must fit one %d-byte frame (at most %d values)", w, server.MaxPayload, maxW)
	}
	return nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7744", "listen address")
	rows := fs.Int("rows", 200_000, "rows per demo table")
	seed := fs.Uint64("seed", 42, "data generator seed")
	workers := fs.Int("workers", 0, "drain worker pool size (0 = default)")
	lanes := fs.Int("lanes", 0, "side-path shard lanes per scan (0 = GOMAXPROCS)")
	chaos := fs.String("chaos", "", "fault-injection profile (corruption-heavy, lane-failure-heavy, network-flaky, disk-failure-heavy)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "fault-injection seed")
	metricsAddr := fs.String("metrics-addr", "", "HTTP introspection address (/metrics, /scans, /healthz, /debug/pprof); empty disables")
	ndvPrec := fs.Int("sketch-ndv", 0, "HyperLogLog precision (2^p registers, 4..16; 0 = default)")
	heavyK := fs.Int("sketch-k", 0, "SpaceSaving heavy-hitter counters (0 = default)")
	windowW := fs.Int("sketch-window", 0, "sliding-window width in values (0 = default)")
	noSketch := fs.Bool("no-sketch", false, "disable the sketch chain entirely")
	dataDir := fs.String("data-dir", "", "durability directory for the stats catalog (checkpoints + WAL); empty serves ephemeral")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "background checkpoint period for -data-dir (0 = 30s default, negative disables timed checkpoints)")
	bundleDir := fs.String("bundle-dir", "", "where anomaly trips drop debug bundles (default <data-dir>/bundles; empty without -data-dir disables)")
	fs.Parse(args)
	if err := checkSketchFlags(*ndvPrec, *heavyK, *windowW); err != nil {
		return err
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	o := obs.New()
	o.Log = log

	cfg := server.Config{DrainWorkers: *workers, ShardLanes: *lanes, Obs: o}
	if *noSketch {
		cfg.Sketch = &sketch.ChainSpec{}
	} else if *ndvPrec > 0 || *heavyK > 0 || *windowW > 0 {
		spec := sketch.DefaultChainSpec()
		if *ndvPrec > 0 {
			spec.NDVPrecision = *ndvPrec
		}
		if *heavyK > 0 {
			spec.HeavyK = *heavyK
		}
		if *windowW > 0 {
			spec.WindowW = *windowW
		}
		cfg.Sketch = &spec
	}
	if *chaos != "" {
		profile, err := faults.ByName(*chaos)
		if err != nil {
			return err
		}
		cfg.Faults = faults.New(*chaosSeed, profile)
		log.Warn("CHAOS MODE: injecting faults; expect Degraded scans",
			"profile", *chaos, "seed", *chaosSeed)
	}
	if *dataDir != "" {
		// Open (and so recover) BEFORE the listener: by the time the first
		// client connects, the catalog already holds everything that survived
		// the last process.
		m, err := durable.Open(*dataDir, durable.Options{
			CheckpointInterval: *ckptInterval,
			Faults:             cfg.Faults,
			Reg:                o.Registry(),
		})
		if err != nil {
			return fmt.Errorf("open durable catalog: %w", err)
		}
		defer m.Close()
		cfg.Durable = m
		rep := m.Report()
		log.Info("durable catalog recovered",
			"dir", *dataDir,
			"checkpoint", rep.CheckpointLoaded,
			"wal_records_replayed", rep.RecordsReplayed,
			"mutations_applied", rep.MutationsApplied,
			"truncated", rep.Truncated,
			"open_scans", len(rep.OpenScans),
			"elapsed", rep.Elapsed)
		if rep.CheckpointCorrupt || rep.Truncated {
			log.Warn("recovery hit damaged state; catalog is a verified prefix of the journaled history",
				"checkpoint_corrupt", rep.CheckpointCorrupt, "fallback_checkpoint", rep.CheckpointFallback,
				"truncated", rep.Truncated)
		}
	}
	srv := server.New(cfg)
	if err := srv.Register(tpch.Lineitem(*rows, 1, *seed)); err != nil {
		return err
	}
	if err := srv.Register(tpch.Synthetic(*rows, 4, 4096, 1.1, *seed)); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Info("serving (^C for graceful shutdown)", "addr", ln.Addr().String(),
		"tables", 2, "rows", *rows)

	bdir := *bundleDir
	if bdir == "" && *dataDir != "" {
		bdir = filepath.Join(*dataDir, "bundles")
	}
	tl := timeline.New(o, bdir)
	tl.Start()
	defer tl.Close()
	log.Info("timeline sampling", "bundle_dir", bdir)

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: timeline.Handler(tl, srv.Obs(), nil)}
		go msrv.Serve(mln)
		defer msrv.Close()
		log.Info("introspection endpoints up",
			"addr", mln.Addr().String(),
			"endpoints", "/metrics /scans /traces /events /timeline /anomalies /healthz /debug/tracez /debug/hwprof /debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = srv.Serve(ctx, ln)
	m := srv.Metrics()
	log.Info("served totals",
		"scans", m.ScansServed, "pages", m.PagesMoved,
		"mib", fmt.Sprintf("%.1f", float64(m.BytesMoved)/(1<<20)),
		"histograms_refreshed", m.HistogramsRefreshed, "stats_served", m.StatsServed)
	if m.ScansDegraded > 0 || m.PagesQuarantined > 0 || m.LanesRetired > 0 || m.RetriesServed > 0 {
		log.Warn("degradation totals",
			"scans_degraded", m.ScansDegraded, "pages_quarantined", m.PagesQuarantined,
			"lanes_retired", m.LanesRetired, "resumes_served", m.RetriesServed,
			"ecc_corrected", m.FaultsCorrected, "bins_quarantined", m.BinsQuarantined)
	}
	if err == server.ErrServerClosed {
		return nil
	}
	return err
}

func dialFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "localhost:7744", "server address")
}

func runScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	addr := dialFlag(fs)
	out := fs.String("o", "", "write received pages to file (default: discard)")
	trace := fs.Bool("trace", false, "originate a distributed trace (prints the trace id; fetch it via /traces?id= on the server's metrics address)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("scan needs <table> <column> (use column '' to skip statistics)")
	}
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if *trace {
		c.EnableTracing()
	}

	var sink io.Writer = io.Discard
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	c.SetRedial(func() (net.Conn, error) { return net.Dial("tcp", *addr) })
	sum, err := c.Scan(fs.Arg(0), fs.Arg(1), sink)
	if err != nil {
		return err
	}
	fmt.Printf("scanned %s.%s: %d pages, %d bytes, %d rows binned\n",
		fs.Arg(0), fs.Arg(1), sum.Pages, sum.Bytes, sum.Rows)
	if *trace {
		fmt.Printf("trace id: %016x\n", c.LastTraceID())
	}
	if sum.Retries > 0 {
		fmt.Printf("scan resumed %d time(s) after mid-stream failures; every delivered page verified\n", sum.Retries)
	}
	if sum.Refreshed {
		fmt.Printf("histogram refreshed as a side effect: %d accelerator cycles (%.3f ms simulated)\n",
			sum.AccelCycles, sum.AccelSeconds*1e3)
		if sum.Degraded {
			fmt.Printf("histogram is DEGRADED: %d tuples skipped (%d pages quarantined, %d lanes retired)\n",
				sum.SkippedTuples, sum.QuarantinedPages, sum.LanesRetired)
		}
	} else {
		fmt.Println("histogram not refreshed (no column, resumed scan, faults, or saturated side path)")
	}
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := dialFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("stats needs <table> <column>")
	}
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Stats(fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("%s.%s (rows=%d version=%d)\n", st.Table, st.Column, st.RowCount, st.Version)
	printHistogramSection(st)
	printNDVSection(st)
	printHeavySection(st)
	printWindowSection(st)
	return nil
}

func printHistogramSection(st *client.Stats) {
	h := st.Histogram
	fmt.Printf("histogram: %v\n", h)
	for i, f := range h.Frequent {
		if i >= 8 {
			fmt.Printf("  ... %d more frequent values\n", len(h.Frequent)-i)
			break
		}
		fmt.Printf("  frequent %d: count %d\n", f.Value, f.Count)
	}
	for i, b := range h.Buckets {
		if i >= 16 {
			fmt.Printf("  ... %d more buckets\n", len(h.Buckets)-i)
			break
		}
		fmt.Printf("  [%d, %d] count %d distinct %d\n", b.Low, b.High, b.Count, b.Distinct)
	}
}

func printNDVSection(st *client.Stats) {
	fmt.Printf("ndv: %d distinct in binned view\n", st.NDistinct)
	if hll := st.Sketches.HLL(); hll != nil {
		fmt.Printf("  hll estimate %.0f (precision %d, %d values seen%s)\n",
			hll.Estimate(), hll.Precision(), hll.Items(), degradedSuffix(hll.Degraded()))
	}
}

func printHeavySection(st *client.Stats) {
	ss := st.Sketches.Heavy()
	if ss == nil {
		return
	}
	fmt.Printf("heavy hitters: top %d of %d values seen%s\n",
		ss.Capacity(), ss.Items(), degradedSuffix(ss.Degraded()))
	for i, hh := range ss.Top(8) {
		fmt.Printf("  #%d value %d: count %d (%s)\n", i+1, hh.Value, hh.Count, hh.Accuracy())
	}
}

func printWindowSection(st *client.Stats) {
	w := st.Sketches.Window()
	if w == nil {
		return
	}
	agg := w.Aggregate()
	fmt.Printf("window: last %d of %d values%s\n", w.W(), w.Items(), degradedSuffix(w.Degraded()))
	if agg.Count > 0 {
		fmt.Printf("  count %d sum %d min %d max %d\n", agg.Count, agg.Sum, agg.Min, agg.Max)
	}
}

func degradedSuffix(d bool) string {
	if d {
		return ", DEGRADED"
	}
	return ""
}

func runTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	addr := dialFlag(fs)
	fs.Parse(args)
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	tables, err := c.Tables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Printf("%s: %d rows, columns %v", t.Name, t.Rows, t.Columns)
		if len(t.StatsColumns) > 0 {
			fmt.Printf(" (stats: %v)", t.StatsColumns)
		}
		fmt.Println()
	}
	return nil
}
