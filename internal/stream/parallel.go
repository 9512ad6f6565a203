package stream

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
	"streamhist/internal/lanes"
	"streamhist/internal/obs"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
	"streamhist/internal/table"
)

// ParallelDataPath is the sharded form of DataPath, the software analogue of
// the §7 scale-up design (Figure 23): the splitter distributes the page
// stream across N replicated Parser+Binner lanes, each accumulating partial
// counts in its own memory, and the partial states are merged before the
// unchanged Histogram module runs. Whole pages are the distribution unit —
// the Parser FSM resets at page boundaries, so lanes never share row state —
// and because bin counts are order-insensitive the merged view is exactly
// the serial DataPath's view.
//
// The host-visible path is untouched: bytes are still relayed to the host in
// storage order; only the statistical side path fans out, through one
// lanes.Engine per scan. This path can read its pages again, so its policy
// toward whatever the engine lost is to replay it (see Scan): lane faults
// are masked completely and the merged result stays exact.
type ParallelDataPath struct {
	Rel    *table.Relation
	Column string
	Link   Link
	Config core.Config
	// Shards is the number of parallel lanes; <= 0 means GOMAXPROCS.
	Shards int
	// Faults optionally injects lane-level faults (faults.LanePanic,
	// faults.LaneStall) into the side path. Each lane gets its own forked
	// deterministic stream. Nil disables injection.
	Faults *faults.Injector
	// Obs, when non-nil, receives one published obs.ScanRecord per scan — one
	// hand-over at the tail, as on the server — and whatever the bundle holds
	// reads it. With a Trace store each scan originates its own trace ID
	// (root span, fan-out / drain / merge phases, one span per lane under the
	// fan-out), so standalone stream traces are fetchable through the same
	// /traces assembly as served scans, and the store tail-samples the record
	// for /events; a Reg registry also takes a completed scan's counters,
	// per-lane cycle and stall gauges and duration. A Prof profiler receives
	// every scan's cycle attribution: each surviving lane's pipeline
	// decomposition under its "lane<i>" frame (the inline replay lane under
	// "inline"), and the aggregation fan-in plus histogram chain under
	// "merged"; retired lanes never flush, so discarded work is never
	// charged. Nothing runs on the per-page hot path. Nil keeps the
	// zero-overhead baseline.
	Obs *obs.Obs
	// Sketch configures the per-lane daisy chain of statistic blocks
	// (internal/sketch). Every lane runs its own chain over its share of the
	// pages, tagging values with their global row ordinal, and the chains
	// merge at fan-in alongside the bin state — so the merged sketches equal
	// the serial DataPath's even under lane retirement and replay. The zero
	// spec disables it (zero-cost baseline).
	Sketch sketch.ChainSpec

	// stallTimeout bounds how long the splitter will wait on a lane that
	// stops accepting chunks, and how long the fan-in waits for all lanes to
	// drain, before retiring them. Zero means DefaultStallTimeout; only the
	// fault tests shorten it.
	stallTimeout time.Duration

	// pageCache holds the relation's encoded page images across scans: the
	// pages model the immutable on-disk relation, so re-encoding them every
	// scan is pure overhead on the host path. Guarded for concurrent Scans.
	pageCacheMu sync.Mutex
	pageCache   []*page.Page

	// scanSeq numbers this path's scans in their records.
	scanSeq atomic.Uint64
}

// encodedPages returns the relation's page images, encoding them on first
// use and reusing the cache afterwards.
func (d *ParallelDataPath) encodedPages() []*page.Page {
	d.pageCacheMu.Lock()
	defer d.pageCacheMu.Unlock()
	if d.pageCache == nil {
		d.pageCache = page.Encode(d.Rel)
	}
	return d.pageCache
}

// Profile snapshots the accumulated cycle attribution of the bundle's
// profiler (empty when none is wired).
func (d *ParallelDataPath) Profile() *hwprof.Profile { return d.Obs.Profiler().Snapshot() }

// DefaultStallTimeout is how long a lane may block the splitter or the
// fan-in before being declared stalled and retired.
const DefaultStallTimeout = 500 * time.Millisecond

// NewParallelDataPath builds a sharded path with the default accelerator
// configuration for the column's observed value range. shards <= 0 picks
// GOMAXPROCS lanes.
func NewParallelDataPath(rel *table.Relation, column string, link Link, shards int) (*ParallelDataPath, error) {
	dp, err := NewDataPath(rel, column, link)
	if err != nil {
		return nil, err
	}
	return &ParallelDataPath{
		Rel:    dp.Rel,
		Column: dp.Column,
		Link:   dp.Link,
		Config: dp.Config,
		Shards: shards,
	}, nil
}

// ParallelScanResult extends ScanResult with the fan-in accounting.
type ParallelScanResult struct {
	ScanResult
	// Shards is the number of lanes that ran.
	Shards int
	// PerShard is each lane's own cycle accounting, in lane order. Retired
	// lanes report zero stats (their partial work was discarded).
	PerShard []core.BinnerStats
	// AggregationCycles is the line-parallel merge cost of the lanes' bin
	// regions (hw.AggregationCycles); zero for a single lane, which needs
	// no fan-in.
	AggregationCycles int64
	// CriticalPathCycles is the merged binning completion: the slowest
	// lane plus the aggregation pass. Results.BinnerStats.Cycles equals
	// this, so the Table 2 downstream arithmetic is unchanged.
	CriticalPathCycles int64
	// LanesRetired counts lanes the supervisor removed (panic or stall).
	LanesRetired int
	// ReplayedChunks counts chunks reprocessed after a lane retirement.
	ReplayedChunks int
}

// laneQueueDepth is how many chunks may wait in front of one lane: enough
// that a lane finishing a chunk finds the next one queued while the splitter
// is busy with the host copy, small enough to stay a bounded buffer.
const laneQueueDepth = 4

// Scan streams the relation to the host in page order while dealing chunks
// of chunkPages pages (<= 0 means lanes.UnitPages; any positive size is
// functionally equivalent) to the shard lanes of one lanes.Engine, then fans
// the lane states back in: bin vectors merge and the completion cycle becomes the max-lane
// critical path plus the aggregation pass. The histogram chain then runs over
// the merged view exactly as in the serial path, so the produced histograms
// are hist.Equal to DataPath.Scan's — even when lanes are retired, because
// this path can read its pages again: everything a retired lane was ever
// given (its partial state is discarded whole, so nothing is counted twice)
// and everything no lane would take is replayed inline.
func (d *ParallelDataPath) Scan(hostSink io.Writer, chunkPages int) (out *ParallelScanResult, err error) {
	shards := d.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if chunkPages <= 0 {
		chunkPages = lanes.UnitPages
	}
	stallTimeout := d.stallTimeout
	if stallTimeout <= 0 {
		stallTimeout = DefaultStallTimeout
	}

	// The scan's one record: the slab is sized for the fixed phases plus one
	// span per lane, so an observed scan costs two allocations up front and
	// struct appends at phase boundaries — nothing per page. tr == nil (no
	// bundle wired) turns every span call below into a pointer check.
	var tr *obs.ScanRecord
	rootIdx := -1
	if d.Obs != nil {
		tr = obs.StartScan(d.scanSeq.Add(1), "stream", d.Rel.Name, d.Column, shards+8)
		if d.Obs.Tracer() != nil {
			tr.EnableTrace(obs.NewTraceID(), 0, obs.SpanSideStream)
		}
		rootIdx = tr.BeginRoot("scan")
		defer func() { d.publish(tr, out, err) }()
	}

	pages := d.encodedPages()
	prof := d.Obs.Profiler()
	bcfg := d.Config.Binner
	if prof != nil {
		bcfg.Prof = prof
	}
	eng, err := lanes.Start(lanes.Config{
		Lanes: shards, Depth: laneQueueDepth, StallTimeout: stallTimeout,
		Column: d.Config.Column, Min: d.Config.Min, Max: d.Config.Max, Divisor: d.Config.Divisor,
		Pages: pages, Sketch: d.Sketch, Faults: d.Faults, Fork: "lane%d",
		// Lane faults never reach the bin memory here: only an injector the
		// caller put on Config.Binner switches on the ECC model.
		Binner: func(*faults.Injector) core.BinnerConfig { return bcfg },
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Fan out: the host gets every byte in storage order; lanes get whole
	// pages round-robin, chunked to amortise channel traffic. The host copy
	// always runs first and never waits on the side path. owner remembers
	// which lane took each chunk, so a retirement can replay its full share.
	fanoutIdx := tr.Begin("fanout")
	owner := make([]int, 0, (len(pages)+chunkPages-1)/chunkPages)
	var hostBytes int64
	var writeErr error
	for off := 0; off < len(pages); off += chunkPages {
		end := min(off+chunkPages, len(pages))
		for _, pg := range pages[off:end] {
			if writeErr != nil {
				break
			}
			n, err := hostSink.Write(pg.Bytes())
			hostBytes += int64(n)
			if err != nil {
				writeErr = fmt.Errorf("stream: host copy: %w", err)
			}
		}
		owner = append(owner, eng.Feed(lanes.Unit{First: off, N: end - off}))
	}
	tr.End(fanoutIdx, 0)

	drainIdx := tr.Begin("drain")
	eng.Join()
	tr.End(drainIdx, 0)
	if writeErr != nil {
		return nil, writeErr
	}

	// Whatever the side path is still owed is binned inline, which has no
	// lane faults by construction, so the scan always ends with an exact view.
	var lost []lanes.Unit
	for k, lane := range owner {
		if eng.Lost(lane) {
			lost = append(lost, lanes.Unit{First: k * chunkPages, N: min(chunkPages, len(pages)-k*chunkPages)})
		}
	}
	if eng.Retired() > 0 || len(lost) > 0 {
		if err := eng.Replay(lost); err != nil {
			return nil, fmt.Errorf("stream: side path (inline replay): %w", err)
		}
	}

	fan, err := eng.FanIn(tr, tr.SpanIDAt(fanoutIdx), prof, d.Config.Binner.Mem.BinsPerLine)
	if err != nil {
		return nil, fmt.Errorf("stream: side path: %w", err)
	}
	mstats := fan.Stats
	res := d.Config.Results(fan.Survivor, mstats, prof)
	tr.End(fan.Span, fan.AggregationCycles)

	out = &ParallelScanResult{
		ScanResult: ScanResult{
			HostBytes:           hostBytes,
			Results:             res,
			TransferSeconds:     float64(hostBytes) / d.Link.BytesPerSec,
			AddedLatencySeconds: d.Config.Splitter.AddedLatencySeconds(),
			AcceleratorKeptUp:   keptUp(res, d.Link, d.Rel),
		},
		Shards:             shards,
		PerShard:           fan.PerLane,
		AggregationCycles:  fan.AggregationCycles,
		CriticalPathCycles: mstats.Cycles,
		LanesRetired:       eng.Retired(),
		ReplayedChunks:     len(lost),
	}
	if tr != nil {
		tr.End(rootIdx, mstats.Cycles)
		tr.Pages, tr.Bytes = uint32(len(pages)), uint64(hostBytes)
		tr.Rows, tr.AccelCycles = uint64(mstats.Items), uint64(mstats.Cycles)
		tr.LanesRetired, tr.ReplayedChunks = uint32(out.LanesRetired), uint32(out.ReplayedChunks)
	}
	return out, nil
}

// publish hands one scan's record over — failed scans included, theirs are
// the traces worth reading — and publishes a completed scan's accounting to
// the wired registry: totals as counters, the last scan's per-lane cycle and
// stall accounting as labelled gauges, and the record's wall clock and trace
// ID into the scan-latency distribution. Runs once per Scan, entirely off the
// data path.
func (d *ParallelDataPath) publish(rec *obs.ScanRecord, res *ParallelScanResult, err error) {
	if err != nil {
		rec.Err = err.Error()
	}
	d.Obs.Publish(rec)
	reg := d.Obs.Registry()
	if reg == nil || err != nil {
		return
	}
	reg.Counter("streamhist_stream_scans_total",
		"Completed ParallelDataPath scans.").Inc()
	reg.Counter("streamhist_stream_host_bytes_total",
		"Bytes relayed to the host across parallel scans.").Add(res.HostBytes)
	reg.Counter("streamhist_stream_lanes_retired_total",
		"Lanes removed by the supervisor (panic or stall) across parallel scans.").Add(int64(res.LanesRetired))
	reg.Counter("streamhist_stream_replayed_chunks_total",
		"Chunks reprocessed after a lane retirement across parallel scans.").Add(int64(res.ReplayedChunks))
	for i, ls := range res.PerShard {
		lane := obs.LabelValue(fmt.Sprint(i))
		reg.Gauge(fmt.Sprintf(`streamhist_stream_lane_cycles{lane="%s"}`, lane),
			"Binning completion cycles per lane for the most recent parallel scan.").Set(ls.Cycles)
		reg.Gauge(fmt.Sprintf(`streamhist_stream_lane_stall_cycles{lane="%s"}`, lane),
			"Cycles lost to read-after-write hazards per lane for the most recent parallel scan.").Set(ls.StallCycles)
	}
	reg.Distribution("streamhist_stream_scan_duration_seconds",
		"Wall-clock duration of parallel scans.", 1e-9).ObserveWithExemplar(rec.WallNS, rec.TraceID)
}
