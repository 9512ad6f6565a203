package server

import (
	"fmt"
	"sort"

	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/sketch"
)

// metrics is the server's instrumentation, backed by registry instruments so
// a single atomic update feeds both MetricsSnapshot and the /metrics
// exposition. Counters are bumped once per scan/phase, never per page or per
// value, so the hot path cost is unchanged from the old plain-atomics struct.
type metrics struct {
	scansServed   *obs.Counter
	pagesMoved    *obs.Counter
	bytesMoved    *obs.Counter
	rowsBinned    *obs.Counter
	histRefreshed *obs.Counter
	statsServed   *obs.Counter
	sideSkipped   *obs.Counter
	parseErrors   *obs.Counter
	accelCycles   *obs.Counter
	laneMerges    *obs.Counter

	pagesQuarantined *obs.Counter
	lanesRetired     *obs.Counter
	scansDegraded    *obs.Counter
	retriesServed    *obs.Counter

	// traceReports / traceReportsBad count the client span trailers stored
	// — and the malformed ones dropped without a reply (the trailer is
	// one-way by contract).
	traceReports    *obs.Counter
	traceReportsBad *obs.Counter

	// faultsCorrected / binsQuarantined fold the merged side path's ECC
	// accounting (BinnerStats.FaultsCorrected / BinsQuarantined) in at
	// fan-in, scan by scan.
	faultsCorrected *obs.Counter
	binsQuarantined *obs.Counter

	// hwprofAttributed accumulates what the scan arithmetic says the
	// hardware profile should hold: Σ healthy-lane cycles + aggregation +
	// chain per refreshed scan. The streamhist_hwprof_consistency gauge
	// compares the profiler's live total against this counter — the Table 2
	// re-derivation as a scrapeable self-check.
	hwprofAttributed *obs.Counter

	activeConns *obs.Gauge
	shardLanes  *obs.Gauge

	// laneCycles holds the last refreshed scan's per-lane binning cycles,
	// one gauge per configured shard lane.
	laneCycles []*obs.Gauge

	// sketchItems and sketchDegraded hold one gauge per block of the
	// configured sketch chain, in chain order; sketchNDV is there when the
	// chain has a HyperLogLog block. All three mirror the last refreshed
	// scan's merged chain.
	sketchItems    []*obs.Gauge
	sketchDegraded []*obs.Gauge
	sketchNDV      *obs.Gauge

	// scanLatency records every served scan's wall-clock duration
	// (nanoseconds in, seconds out) through the streaming-histogram
	// distribution, so /metrics p50/p90/p99 come from the repository's own
	// equi-depth construction.
	scanLatency *obs.Distribution

	// memEvents feeds live ECC/latency events from the fault-injected bin
	// memories, including lanes later retired (unlike the folded counters
	// above, which only see state that survived to the merge).
	memEvents hw.MemEvents
}

// newMetrics registers the server's instruments, the sketch gauges from the
// blocks spec configures. A nil registry yields nil instruments throughout —
// every update degrades to a pointer check.
func newMetrics(reg *obs.Registry, lanes int, spec sketch.ChainSpec) metrics {
	m := metrics{
		scansServed:   reg.Counter("streamhist_server_scans_served_total", "Completed SCAN requests."),
		pagesMoved:    reg.Counter("streamhist_server_pages_moved_total", "Page images delivered across all served scans."),
		bytesMoved:    reg.Counter("streamhist_server_bytes_moved_total", "Page payload bytes delivered across all served scans."),
		rowsBinned:    reg.Counter("streamhist_server_rows_binned_total", "Column values pushed through the Binner side path."),
		histRefreshed: reg.Counter("streamhist_server_histograms_refreshed_total", "Catalog installs produced by served scans."),
		statsServed:   reg.Counter("streamhist_server_stats_served_total", "Answered STATS requests."),
		sideSkipped:   reg.Counter("streamhist_server_side_skipped_total", "Scans streamed without a side path because the drain pool was saturated."),
		parseErrors:   reg.Counter("streamhist_server_parse_errors_total", "Side paths abandoned on malformed page bytes."),
		accelCycles:   reg.Counter("streamhist_server_accel_cycles_total", "Simulated accelerator cycles (binning pipeline plus histogram chain) across refreshes."),
		laneMerges:    reg.Counter("streamhist_server_lane_merges_total", "Binner-state merges performed at side-path fan-in."),

		pagesQuarantined: reg.Counter("streamhist_server_pages_quarantined_total", "Pages the side path skipped because they arrived corrupted or cut short."),
		lanesRetired:     reg.Counter("streamhist_server_lanes_retired_total", "Side-path lanes abandoned after a panic or a stall past the supervision timeout."),
		scansDegraded:    reg.Counter("streamhist_server_scans_degraded_total", "Scans whose summary reported a degraded (or absent) statistics side effect."),
		retriesServed:    reg.Counter("streamhist_server_retries_served_total", "Scans resumed from a nonzero page offset by a reconnecting client."),

		traceReports:    reg.Counter("streamhist_server_trace_reports_total", "Client span trailers accepted and stored for trace assembly."),
		traceReportsBad: reg.Counter("streamhist_server_trace_reports_bad_total", "Malformed client span trailers dropped without a reply."),

		faultsCorrected: reg.Counter("streamhist_server_ecc_corrected_total", "Injected bin-memory upsets ECC repaired in merged side-path state."),
		binsQuarantined: reg.Counter("streamhist_server_bins_quarantined_total", "Bins lost to uncorrectable memory upsets in merged side-path state."),

		hwprofAttributed: reg.Counter("streamhist_hwprof_attributed_cycles_total", "Cycles the scan arithmetic (healthy lanes + aggregation + chain) expects the hardware profile to hold."),

		activeConns: reg.Gauge("streamhist_server_active_conns", "Currently registered connections."),
		shardLanes:  reg.Gauge("streamhist_server_shard_lanes", "Configured side-path fan-out (parallel Parser+Binner lanes per scan)."),

		scanLatency: reg.Distribution("streamhist_server_scan_duration_seconds", "Wall-clock duration of served scans.", 1e-9),

		memEvents: hw.MemEvents{
			Corrected:   reg.Counter("streamhist_hw_ecc_corrected_events_total", "Live single-bit bin-memory upsets repaired by ECC (all lanes, retired included)."),
			Quarantined: reg.Counter("streamhist_hw_ecc_quarantined_events_total", "Live bin-memory words lost to uncorrectable upsets (all lanes, retired included)."),
			SpikeCycles: reg.Counter("streamhist_hw_mem_spike_cycles_total", "Extra cycles injected by memory latency spikes."),
		},
	}
	m.shardLanes.Set(int64(lanes))
	m.laneCycles = make([]*obs.Gauge, lanes)
	for i := range m.laneCycles {
		m.laneCycles[i] = reg.Gauge(
			fmt.Sprintf("streamhist_server_lane_cycles{lane=%q}", fmt.Sprint(i)),
			"Binning cycles charged to each side-path lane by the most recent refreshed scan.")
	}
	if reg != nil {
		// A chain built from the spec names the blocks every scan's merged
		// chain will hold, in the same order; only the names are kept.
		c := sketch.NewChain(spec)
		bs := c.Blocks()
		for _, b := range bs {
			name := obs.LabelValue(b.Name())
			m.sketchItems = append(m.sketchItems, reg.Gauge(
				fmt.Sprintf(`streamhist_sketch_items{block="%s"}`, name),
				"Values consumed per sketch block by the most recent refreshed scan's merged chain."))
			m.sketchDegraded = append(m.sketchDegraded, reg.Gauge(
				fmt.Sprintf(`streamhist_sketch_degraded{block="%s"}`, name),
				"1 when the sketch block's state is suspect (fault-corrupted, retired, or fed an incomplete stream)."))
		}
		if bs.HLL() != nil {
			m.sketchNDV = reg.Gauge("streamhist_sketch_ndv_estimate",
				"HyperLogLog distinct-count estimate from the most recent refreshed scan.")
		}
		c.Release()
	}
	return m
}

// setLaneCycles records one healthy lane's binning cycles from the most
// recent refreshed scan.
func (m *metrics) setLaneCycles(lane int, cycles int64) {
	if lane >= 0 && lane < len(m.laneCycles) {
		m.laneCycles[lane].Set(cycles)
	}
}

// setSketch mirrors a refreshed scan's merged sketch chain into the sketch
// gauges: items consumed and degradation per block, plus the HLL NDV
// estimate. A nil chain, or a server without a registry, sets nothing.
func (m *metrics) setSketch(c *sketch.Chain) {
	if c == nil || len(m.sketchItems) == 0 {
		return
	}
	bs := c.Blocks()
	for i, b := range bs[:min(len(bs), len(m.sketchItems))] {
		m.sketchItems[i].Set(b.Items())
		var deg int64
		if b.Degraded() {
			deg = 1
		}
		m.sketchDegraded[i].Set(deg)
	}
	if m.sketchNDV != nil {
		if ndv, ok := bs.NDVEstimate(); ok {
			m.sketchNDV.Set(int64(ndv + 0.5))
		}
	}
}

// hwprofCycles is the streamhist_hwprof_cycles family: the profiler's cycle
// totals per (module, stage, reason), summed over lanes so the exposition's
// cardinality stays bounded by the stack vocabulary, not the lane count. A
// label set appears once it has cycles. It runs when the registry is read —
// a scrape or a timeline tick — never on a scan.
func hwprofCycles(p *hwprof.Profiler) func(emit func(labels string, v float64)) {
	return func(emit func(string, float64)) {
		totals := make(map[string]int64)
		for _, smp := range p.Snapshot().Samples {
			if len(smp.Stack) == 4 && smp.Cycles != 0 {
				totals[fmt.Sprintf(`module="%s",stage="%s",reason="%s"`, obs.LabelValue(smp.Stack[1]),
					obs.LabelValue(smp.Stack[2]), obs.LabelValue(smp.Stack[3]))] += smp.Cycles
			}
		}
		labels := make([]string, 0, len(totals))
		for l := range totals {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			emit(l, float64(totals[l]))
		}
	}
}

// MetricsSnapshot is a point-in-time copy of the server counters.
type MetricsSnapshot struct {
	// ScansServed counts completed SCAN requests; BytesMoved and PagesMoved
	// count the page payload delivered across all of them.
	ScansServed int64
	PagesMoved  int64
	BytesMoved  int64
	// RowsBinned counts column values pushed through the Binner side path.
	RowsBinned int64
	// HistogramsRefreshed counts catalog installs produced by served scans.
	HistogramsRefreshed int64
	// StatsServed counts answered STATS requests.
	StatsServed int64
	// SideSkipped counts scans that streamed without a side path because
	// the drain pool was saturated (the fail-open case).
	SideSkipped int64
	// ParseErrors counts side paths abandoned on malformed page bytes.
	ParseErrors int64
	// AccelCycles accumulates the simulated accelerator cycles (binning
	// pipeline + histogram chain) across refreshes.
	AccelCycles int64
	// ActiveConns is the number of currently registered connections.
	ActiveConns int64
	// ShardLanes is the configured side-path fan-out: how many parallel
	// Parser+Binner lanes each served scan shards its page frames across.
	ShardLanes int64
	// LaneMerges counts binner-state merges performed at side-path fan-in
	// (ShardLanes-1 per refreshed scan).
	LaneMerges int64
	// PagesQuarantined counts pages the side path skipped because they
	// arrived corrupted or cut short.
	PagesQuarantined int64
	// LanesRetired counts side-path lanes abandoned after a panic or a
	// stall past the supervision timeout.
	LanesRetired int64
	// ScansDegraded counts scans whose summary reported a degraded (or
	// absent) statistics side effect while the raw stream completed.
	ScansDegraded int64
	// RetriesServed counts scans resumed from a nonzero page offset by a
	// reconnecting client.
	RetriesServed int64
	// FaultsCorrected counts injected bin-memory upsets that ECC repaired in
	// side-path state that survived to the fan-in merge.
	FaultsCorrected int64
	// BinsQuarantined counts bins lost to uncorrectable memory upsets in
	// merged side-path state (the histogram was marked degraded).
	BinsQuarantined int64
}

// Metrics returns a snapshot of the server's counters. It reads the same
// registry instruments /metrics exposes, so the two views cannot drift.
func (s *Server) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		ScansServed:         s.metrics.scansServed.Value(),
		PagesMoved:          s.metrics.pagesMoved.Value(),
		BytesMoved:          s.metrics.bytesMoved.Value(),
		RowsBinned:          s.metrics.rowsBinned.Value(),
		HistogramsRefreshed: s.metrics.histRefreshed.Value(),
		StatsServed:         s.metrics.statsServed.Value(),
		SideSkipped:         s.metrics.sideSkipped.Value(),
		ParseErrors:         s.metrics.parseErrors.Value(),
		AccelCycles:         s.metrics.accelCycles.Value(),
		ActiveConns:         s.metrics.activeConns.Value(),
		ShardLanes:          int64(s.cfg.ShardLanes),
		LaneMerges:          s.metrics.laneMerges.Value(),
		PagesQuarantined:    s.metrics.pagesQuarantined.Value(),
		LanesRetired:        s.metrics.lanesRetired.Value(),
		ScansDegraded:       s.metrics.scansDegraded.Value(),
		RetriesServed:       s.metrics.retriesServed.Value(),
		FaultsCorrected:     s.metrics.faultsCorrected.Value(),
		BinsQuarantined:     s.metrics.binsQuarantined.Value(),
	}
}
