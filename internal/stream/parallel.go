package stream

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/lanes"
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
// lanes.Engine per scan, whose queue depth and stall timeout are its own.
// This path can read its pages again, so its policy toward whatever the
// engine lost is to replay it (see Scan): lane faults are masked completely
// and the merged result stays exact.
type ParallelDataPath struct {
	// DataPath supplies the relation, column, link, circuit configuration,
	// sketch spec, page cache and profiler. Prof is charged per surviving
	// lane under "lane<i>" (the inline replay under "inline") and the fan-in
	// plus histogram chain under "merged"; retired lanes never flush. Each
	// lane runs its own sketch chain at global row ordinals, merged at
	// fan-in, so the sketches equal the serial DataPath's under any replay.
	*DataPath
	// Shards is the number of parallel lanes; <= 0 means GOMAXPROCS.
	Shards int

	// faults injects lane.panic and lane.stall, one forked stream per lane;
	// stallTimeout bounds how long the splitter waits on a lane that stops
	// accepting chunks, and the fan-in on all lanes draining, before
	// retiring them (zero keeps the engine's 500 ms). Only the fault tests
	// set either.
	faults       *faults.Injector
	stallTimeout time.Duration
}

// NewParallelDataPath builds a sharded path with the default accelerator
// configuration for the column's observed value range. shards <= 0 picks
// GOMAXPROCS lanes.
func NewParallelDataPath(rel *table.Relation, column string, link Link, shards int) (*ParallelDataPath, error) {
	dp, err := NewDataPath(rel, column, link)
	if err != nil {
		return nil, err
	}
	return &ParallelDataPath{DataPath: dp, Shards: shards}, nil
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
func (d *ParallelDataPath) Scan(hostSink io.Writer, chunkPages int) (*ParallelScanResult, error) {
	shards := d.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if chunkPages <= 0 {
		chunkPages = lanes.UnitPages
	}

	pages := d.encodedPages()
	bcfg := d.Config.Binner
	if d.Prof != nil {
		bcfg.Prof = d.Prof
	}
	eng, err := lanes.Start(lanes.Config{
		Lanes: shards, StallTimeout: d.stallTimeout,
		Column: d.Config.Column, Min: d.Config.Min, Max: d.Config.Max, Divisor: d.Config.Divisor,
		Pages: pages, Sketch: d.Sketch, Faults: d.faults, Fork: "lane%d",
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

	eng.Join()
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

	fan, err := eng.FanIn(nil, d.Prof, d.Config.Binner.Mem.BinsPerLine)
	if err != nil {
		return nil, fmt.Errorf("stream: side path: %w", err)
	}
	mstats := fan.Stats
	res := d.Config.Results(fan.Survivor, mstats, d.Prof)

	return &ParallelScanResult{
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
	}, nil
}
