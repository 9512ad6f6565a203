package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is one workload's run: the failure accounting, every end-to-end
// metric from the untraced window and, on a traced run, every per-layer one.
type result struct {
	Workload      string   `json:"workload"`
	Seed          uint64   `json:"seed"`
	WindowSeconds float64  `json:"window_seconds"`
	Attempted     int      `json:"ops_attempted"`
	Failed        int      `json:"ops_failed"`
	EndToEnd      []metric `json:"end_to_end"`
	PerLayer      []metric `json:"per_layer,omitempty"`
	// Exact holds the simulated counts that repeat bit for bit across runs
	// of one seed; compare insists on it.
	Exact map[string]float64 `json:"exact"`

	ops   []op
	spans *spanLog
}

// maxProcs is GOMAXPROCS for every run: min(nproc, 4), so a larger runner
// changes the core count the budget divides by only up to a point.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

// runWorkload runs one workload in this process: set-up (p.setups times,
// the last one kept), the untraced timed window, then — only when traced —
// the traced pass and the layer replay, never overlapping the window.
func runWorkload(sp *spec, w workload, p params, seed uint64, traced bool) (*result, error) {
	runtime.GOMAXPROCS(maxProcs())
	log := &opLog{}
	res := &result{Workload: w.name, Seed: seed, WindowSeconds: p.window.Seconds(),
		spans: &spanLog{runID: fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())}}

	var bn *bench
	setups := make([]time.Duration, 0, p.setups)
	for i := 0; i < p.setups; i++ {
		if bn != nil {
			bn.tearDown()
			runtime.GC() // the next set-up does not inherit this one's garbage
		}
		start := time.Now()
		var err error
		if bn, err = setUp(w, p, seed, log); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start))
	}
	defer bn.tearDown()

	win := bn.runWindow()
	if len(win.scanLat) == 0 {
		return nil, fmt.Errorf("%s: no scan completed in the window", w.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e2e := newMetricSet(sp.EndToEnd)
	e2e.set("setup_s", median(setups).Seconds())
	e2e.set("scan_MBps", median(win.segMBps))
	e2e.setN("scan_p50_ms", ms(median(win.scanLat)), len(win.scanLat))
	e2e.setN("stats_p50_us", us(median(win.statsLat)), len(win.statsLat))
	e2e.set("cpu_ms_per_scan", ms(win.cpu)/float64(len(win.scanLat)))
	e2e.set("peak_rss_MB", rss)
	if res.EndToEnd, err = e2e.list(); err != nil {
		return nil, err
	}
	res.Exact = map[string]float64{
		"sim_accel_ms":             win.accelSeconds * 1e3,
		"core.sim_cycles_per_scan": float64(win.accelCycles),
	}
	if ref := bn.or.refs[w.scanCol]; ref != nil {
		res.Exact["bins.num_bins"] = float64(ref.numBins())
	}

	var tr *tracedResult
	if traced {
		if tr, err = bn.tracedPass(median(win.scanLat)); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}
	var cr crashResult
	if w.durable {
		if cr, err = bn.crashAndReopen(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	bn.tearDown() // the replay is single-threaded: nothing else runs beside it
	if traced {
		samples, err := replayLayers(bn, tr, res.spans)
		if err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", w.name, err)
		}
		layers := newMetricSet(sp.PerLayer)
		fillLayers(layers, sp, bn, win, tr, cr, samples, res.Exact)
		fillBudget(layers, bn, ms(median(win.scanLat)))
		if res.PerLayer, err = layers.list(); err != nil {
			return nil, err
		}
	}

	res.ops = log.ops
	sort.SliceStable(res.ops, func(i, j int) bool {
		return res.ops[i].start.Add(res.ops[i].latency).Before(res.ops[j].start.Add(res.ops[j].latency))
	})
	res.Attempted = len(res.ops)
	for _, o := range res.ops {
		if !o.ok {
			res.Failed++
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// fromNS scales a nanosecond figure to a declared unit ("ms", "us/call",
// "ns/page", ...); other units pass through.
func fromNS(ns float64, unit string) float64 {
	switch base, _, _ := strings.Cut(unit, "/"); base {
	case "ms":
		return ns / 1e6
	case "us":
		return ns / 1e3
	}
	return ns
}

// fillLayers emits every per-layer metric except the budget: the replay
// medians, the server's own span medians, the window's counters.
func fillLayers(layers *metricSet, sp *spec, bn *bench, win windowResult, tr *tracedResult, cr crashResult, samples map[string][]float64, exact map[string]float64) {
	// Replayed layers and the server's own spans: medians over the
	// repetitions and over the traced scans.
	for _, d := range sp.PerLayer {
		if xs, ok := samples[d.Name]; ok {
			layers.set(d.Name, fromNS(median(xs), d.Unit))
		}
		if span, ok := strings.CutPrefix(d.Name, "server.span_"); ok {
			span = span[:strings.LastIndex(span, "_")] // drop the unit suffix
			if xs := tr.serverSpans[span]; len(xs) > 0 {
				layers.set(d.Name, fromNS(median(xs), d.Unit))
			} else {
				layers.na(d.Name)
			}
		}
	}

	scans := float64(len(win.scanLat))
	layers.set("server.side_skipped", float64(win.srvEnd.SideSkipped-win.srvBefore.SideSkipped))
	layers.set("server.scans_degraded", float64(win.srvEnd.ScansDegraded-win.srvBefore.ScansDegraded))
	layers.set("server.lanes_retired", float64(win.srvEnd.LanesRetired-win.srvBefore.LanesRetired))
	layers.set("server.pages_quarantined", float64(win.srvEnd.PagesQuarantined-win.srvBefore.PagesQuarantined))

	layers.set("client.scan_p90_ms", ms(quantile(win.scanLat, 0.90)))
	layers.set("client.scan_max_ms", ms(quantile(win.scanLat, 1)))
	layers.set("client.stats_p90_us", us(quantile(win.statsLat, 0.90)))

	layers.set("sim_accel_ms", exact["sim_accel_ms"])
	layers.set("core.sim_cycles_per_scan", exact["core.sim_cycles_per_scan"])

	if bn.w.durable {
		layers.set("durable.wal_bytes_per_scan", float64(win.walBytes)/scans)
		layers.set("durable.checkpoints", float64(win.checkpoints))
		layers.set("durable.checkpoint_ms", ms(cr.checkpoint))
		layers.set("durable.recover_ms", ms(cr.recover))
		layers.set("durable.dropped_records", float64(cr.dropped))
	}

	layers.set("obs.trace_overhead_pct", tr.overheadPct)
	layers.set("proc.alloc_MB_per_scan", float64(win.mem.TotalAlloc-win.memBefore.TotalAlloc)/1e6/scans)
	layers.set("proc.gc_cycles_per_scan", float64(win.mem.NumGC-win.memBefore.NumGC)/scans)
	layers.set("proc.gc_pause_ms_per_scan", float64(win.mem.PauseTotalNs-win.memBefore.PauseTotalNs)/1e6/scans)

	if !bn.w.durable {
		for _, d := range sp.PerLayer {
			if strings.HasPrefix(d.Name, "durable.") {
				layers.na(d.Name)
			}
		}
	}
	if bn.w.scanCol == "" {
		layers.na(sidePathLayers...)
	}
}

// sidePathLayers are the replayed layers only a scan with a column runs;
// raw-move reports them as not applicable.
var sidePathLayers = []string{
	"core.parser_ns_per_row", "core.binner_push_ns_per_row", "core.binner_new_ms",
	"core.binner_merge_ms", "core.histchain_ms",
	"sketch.chain_ns_per_value", "sketch.hll_ns_per_value", "sketch.spacesaving_ns_per_value",
	"sketch.window_ns_per_value", "sketch.merge_us",
	"bins.cardinality_ms", "bins.num_bins", "dbms.catalog_put_us", "stream.datapath_MBps",
}

// fillBudget sums the replayed layers into the model README.md states and
// sets it against the measured median scan:
//
//	transport = frame encode + loopback + client replay        (per scan)
//	side      = checksum + parser + binner new + push + chain  (per lane)
//	finish    = merge + histogram chain + 2× cardinality + sketch merge + put
//	modeled   = max(transport, (transport + lanes×side)/GOMAXPROCS) + finish
//
// The stream phase is bounded by its serial transport chain or by total CPU
// over the cores, whichever is larger; finish is serial. On mixed-durable the
// catalog under put has the journal attached, so put already contains
// durable.journal_put_us and the journal is not added a second time.
func fillBudget(layers *metricSet, bn *bench, scanP50ms float64) {
	pages, rows := float64(bn.or.pages), float64(bn.or.rows)
	g := layers.get
	transport := (g("server.frame_encode_ns_per_page") + g("server.loopback_ns_per_page") +
		g("client.replay_ns_per_page")) * pages / 1e6
	var side, finish float64
	if bn.w.scanCol != "" {
		side = (g("page.checksum_ns_per_page")*pages+
			(g("core.parser_ns_per_row")+g("core.binner_push_ns_per_row")+g("sketch.chain_ns_per_value"))*rows)/lanes/1e6 +
			g("core.binner_new_ms")
		finish = g("core.binner_merge_ms") + g("core.histchain_ms") + 2*g("bins.cardinality_ms") +
			(g("sketch.merge_us")+g("dbms.catalog_put_us"))/1e3
	}
	modeled := max(transport, (transport+lanes*side)/float64(maxProcs())) + finish
	layers.set("budget.transport_ms", transport)
	layers.set("budget.side_ms", side)
	layers.set("budget.finish_ms", finish)
	layers.set("budget.modeled_ms", modeled)
	layers.set("budget.unattributed_ms", scanP50ms-modeled)
	layers.set("budget.coverage_pct", modeled/scanP50ms*100)
}
