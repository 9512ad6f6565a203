package stream

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
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
// storage order; only the statistical side path fans out. That asymmetry is
// also the failure model: a lane that panics or stalls is retired by the
// supervisor and every chunk it was ever assigned is replayed (its partial
// binner is discarded wholesale, so replay can never double count), which
// masks lane faults completely — the merged result stays exact — while the
// host stream never waits on a sick lane.
type ParallelDataPath struct {
	Rel    *table.Relation
	Column string
	Link   Link
	Config core.Config
	// Shards is the number of parallel lanes; <= 0 means GOMAXPROCS.
	Shards int
	// ChunkPages is how many pages ride in one fan-out unit (default 16).
	// Larger chunks amortise dispatch overhead; any positive size is
	// functionally equivalent.
	ChunkPages int
	// Faults optionally injects lane-level faults (faults.LanePanic,
	// faults.LaneStall) into the side path. Each lane gets its own forked
	// deterministic stream. Nil disables injection.
	Faults *faults.Injector
	// StallTimeout bounds how long the splitter will wait on a lane that
	// stops accepting chunks, and how long the fan-in waits for lanes to
	// drain, before retiring them. Zero means DefaultStallTimeout.
	StallTimeout time.Duration
	// SelfCheck recomputes the binned view serially after the merge and
	// fails the scan if the parallel result drifted. Intended for chaos
	// tests; it doubles the side-path work. Skipped when bin memory
	// quarantined words (the drift is then expected and accounted).
	SelfCheck bool
	// Obs, when non-nil, receives per-scan instrumentation: scan and
	// retirement counters, per-lane cycle and stall gauges, and a scan
	// duration distribution. All updates happen once per Scan, after the
	// fan-in — never on the per-page hot path.
	Obs *obs.Registry
	// Flight, when non-nil, receives one wide event per completed scan —
	// the same one-struct-copy-at-the-tail discipline as the server's
	// recorder, keyed by a path-local scan sequence. Nil keeps the
	// zero-overhead baseline.
	Flight *obs.FlightRecorder
	// Trace, when non-nil, receives one published ScanTrace per completed
	// scan: a root span over the whole scan, fan-out / drain / merge phase
	// spans, and one span per lane (parented under the fan-out span) carrying
	// that lane's wall window and simulated cycle account. Each scan
	// originates its own trace ID, so standalone stream traces are fetchable
	// through the same /traces assembly as served scans. Nil keeps the
	// zero-overhead baseline.
	Trace *obs.Tracer
	// Prof, when non-nil, receives the cycle attribution of every scan:
	// each surviving lane's pipeline decomposition under its "lane<i>"
	// frame (the inline replay lane under "inline"), and the aggregation
	// fan-in plus histogram chain under "merged". Retired lanes never
	// flush, so discarded work is never charged. Nil keeps the unprofiled
	// baseline.
	Prof *hwprof.Profiler
	// Sketch configures the per-lane daisy chain of statistic blocks
	// (internal/sketch). Every lane runs its own chain over its share of the
	// pages, tagging values with their global row ordinal, and the chains
	// merge at fan-in alongside the bin state — so the merged sketches equal
	// the serial DataPath's even under lane retirement and replay. The zero
	// spec disables it (zero-cost baseline).
	Sketch sketch.ChainSpec

	// pageCache holds the relation's encoded page images across scans: the
	// pages model the immutable on-disk relation, so re-encoding them every
	// scan is pure overhead on the host path. Guarded for concurrent Scans.
	pageCacheMu sync.Mutex
	pageCache   []*page.Page

	// scanSeq numbers this path's scans for flight-recorder correlation when
	// the path runs standalone (the server keys events by its own scan id).
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

// InvalidatePages drops the cached page images; call after mutating Rel.
func (d *ParallelDataPath) InvalidatePages() {
	d.pageCacheMu.Lock()
	d.pageCache = nil
	d.pageCacheMu.Unlock()
}

// Profile snapshots the accumulated cycle attribution (empty when no
// profiler is wired).
func (d *ParallelDataPath) Profile() *hwprof.Profile { return d.Prof.Snapshot() }

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

// errInjectedLaneFault is the panic value of a chaos-injected lane fault, so
// the supervisor can tell harness-made failures from real data errors with
// errors.Is rather than by matching message text.
var errInjectedLaneFault = errors.New("injected lane fault")

// pageChunk is one fan-out unit: a run of consecutive pages plus the index
// of its first page in the relation's page sequence. Pages are fully packed
// (page.Encode), so firstPage·capacity is the global row ordinal of the
// chunk's first value — what the sketch chain's position cursor needs to stay
// exact no matter which lane a chunk lands on or when it is replayed.
type pageChunk struct {
	pages     []*page.Page
	firstPage int
}

// lane is one shard of the side path: a private Parser and Binner consuming
// page chunks from its own channel, under supervision.
type lane struct {
	parser *core.Parser
	binner *core.Binner // built by run; like err, read only after done closes
	ch     chan pageChunk
	err    error // parse error or recovered panic; written before done closes
	done   chan struct{}
	inj    *faults.Injector
	// release unblocks an injected stall; the supervisor closes it during
	// cleanup so stalled goroutines never outlive the scan.
	release chan struct{}
	// assigned records every chunk ever sent to this lane, so a retirement
	// can replay the lane's full share.
	assigned []pageChunk
	retired  bool
	// startNS/endNS bound the lane goroutine's wall window for its trace
	// span: two clock reads per lane per scan, never per page. Atomics
	// because a retired lane's goroutine can still be running (stalled)
	// when the supervisor reads the window for the retirement span; an
	// unfinished lane reads as 0 and AddSpan clamps it to "still open".
	startNS, endNS atomic.Int64
	// chClosed tracks whether the supervisor has closed ch yet; lanes
	// retired mid-fan-out keep theirs open until cleanup.
	chClosed bool
}

// run is the lane goroutine. It builds its own Binner before the first
// chunk, so the lanes size (or recycle) their bin regions in parallel rather
// than one after the other on the supervisor.
func (l *lane) run(bcfg core.BinnerConfig, pre *core.Preprocessor) {
	l.startNS.Store(time.Now().UnixNano())
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				l.err = fmt.Errorf("lane panic: %w", err)
			} else {
				l.err = fmt.Errorf("lane panic: %v", r)
			}
		}
		l.endNS.Store(time.Now().UnixNano())
		close(l.done)
	}()
	l.binner = core.NewBinner(bcfg, pre)
	var vals []int64
	for chunk := range l.ch {
		if l.err != nil {
			continue // drain: a poisoned lane fails open, never blocks feeders
		}
		if l.inj.Should(faults.LanePanic) {
			panic(errInjectedLaneFault)
		}
		if l.inj.Should(faults.LaneStall) {
			<-l.release // hold until the supervisor tears the scan down
		}
		for j, pg := range chunk.pages {
			var err error
			vals, err = l.parser.Feed(pg.Bytes(), vals[:0])
			if err != nil {
				l.err = err
				break
			}
			l.binner.SetStreamPos(int64(chunk.firstPage+j) * int64(pg.Capacity()))
			l.binner.PushAll(vals)
		}
	}
	// The lane's share of the sketch fold, in parallel with the other lanes'.
	l.binner.FoldSketches()
}

// retire marks the lane dead and hands back its full chunk share for replay.
func (l *lane) retire() []pageChunk {
	l.retired = true
	return l.assigned
}

// Scan streams the relation to the host in page order while fanning page
// chunks out to the shard lanes round-robin, then fans the lane states back
// in: bin vectors merge via core.Binner.Merge and the completion cycle
// becomes the max-lane critical path plus the aggregation pass. The
// histogram chain then runs over the merged view exactly as in the serial
// path, so the produced histograms are hist.Equal to DataPath.Scan's — even
// when lanes are retired, because a retired lane's whole share is replayed.
func (d *ParallelDataPath) Scan(hostSink io.Writer, chunkPages int) (*ParallelScanResult, error) {
	scanStart := time.Now()
	shards := d.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if chunkPages <= 0 {
		chunkPages = d.ChunkPages
	}
	if chunkPages <= 0 {
		chunkPages = 16
	}
	stallTimeout := d.StallTimeout
	if stallTimeout <= 0 {
		stallTimeout = DefaultStallTimeout
	}

	// Tracing: every scan originates its own distributed trace under the
	// stream side salt. The slab is sized for the fixed phases plus one span
	// per lane, so a traced scan costs one allocation up front and struct
	// appends at phase boundaries — nothing per page. tr==nil (no tracer
	// wired) turns every span call below into a pointer check.
	scanID := d.scanSeq.Add(1)
	var tr *obs.ScanTrace
	var traceID uint64
	rootIdx := -1
	if d.Trace != nil {
		traceID = obs.NewTraceID()
		tr = d.Trace.Start(scanID, d.Rel.Name, d.Column, shards+8)
		tr.EnableTrace(traceID, 0, obs.SpanSideStream)
		rootIdx = tr.BeginRoot("scan")
	}

	pre := func() (*core.Preprocessor, error) {
		return core.RangeFor(d.Config.Min, d.Config.Max, d.Config.Divisor)
	}

	lanes := make([]*lane, shards)
	for i := range lanes {
		p, err := pre()
		if err != nil {
			return nil, err
		}
		bcfg := d.Config.Binner
		if d.Prof != nil {
			bcfg.Prof = d.Prof
			bcfg.ProfLane = fmt.Sprintf("lane%d", i)
		}
		inj := d.Faults.Fork(fmt.Sprintf("lane%d", i))
		// Each lane runs its own sketch chain over its share of the pages;
		// the chains merge at fan-in via Binner.Merge. A retired lane's
		// chain is discarded with its binner, so replayed chunks are never
		// double counted by the sketches either.
		laneChain := sketch.NewChain(d.Sketch)
		laneChain.SetFaults(inj)
		bcfg.Sketches = laneChain
		lanes[i] = &lane{
			parser:  core.NewParser(d.Config.Column),
			ch:      make(chan pageChunk, 4),
			done:    make(chan struct{}),
			inj:     inj,
			release: make(chan struct{}),
		}
		go lanes[i].run(bcfg, p)
	}
	// survivor is the binner whose Finish results escape into the scan
	// result; every other lane's state is recycled once its goroutine joins.
	// inline is declared here so the cleanup below can see the replay lane.
	var survivor *core.Binner
	var inline *lane
	defer func() {
		// Unblock any injected stalls, close the channels of lanes retired
		// mid-fan-out (their goroutines resume on release and must see EOF,
		// or they would block in the range forever), and join every lane so
		// no goroutine — healthy, stalled, or retired — outlives the scan.
		// Retired lanes may drain leftover chunks on the way out; their
		// binners are never merged, so the work is discarded, not counted.
		for _, l := range lanes {
			close(l.release)
			if !l.chClosed {
				close(l.ch)
				l.chClosed = true
			}
		}
		for _, l := range lanes {
			<-l.done
		}
		// Every goroutine is joined, so the non-surviving lanes' state is
		// provably private: park it for the next scan. The survivor's vector
		// and sketch blocks are the scan result and are never recycled; nor
		// is a chain the survivor adopted wholesale during Merge (the
		// pointer comparison below catches the adoption case).
		recycle := func(l *lane) {
			if l == nil || l.binner == nil || l.binner == survivor {
				return
			}
			if sc := l.binner.SketchChain(); sc != nil && (survivor == nil || sc != survivor.SketchChain()) {
				sc.Release()
			}
			l.binner.Release()
		}
		for _, l := range lanes {
			recycle(l)
		}
		recycle(inline)
	}()

	healthy := append([]*lane(nil), lanes...)
	var pendingReplay []pageChunk // chunks owed to the side path
	var retiredCount, replayed int

	retire := func(idx int) {
		l := healthy[idx]
		healthy = append(healthy[:idx], healthy[idx+1:]...)
		retiredCount++
		pendingReplay = append(pendingReplay, l.retire()...)
	}

	// deliver hands one chunk to some healthy lane, retiring lanes that are
	// dead (done closed early) or that refuse the chunk past the stall
	// timeout. It reports false when no healthy lane is left.
	next := 0
	deliver := func(chunk pageChunk) bool {
		for len(healthy) > 0 {
			idx := next % len(healthy)
			l := healthy[idx]
			// Fast path: a keeping-up lane has buffer space, so the send
			// succeeds without arming a timer (one allocation per chunk
			// otherwise). The timer only exists while the lane is suspect.
			select {
			case l.ch <- chunk:
				l.assigned = append(l.assigned, chunk)
				next++
				return true
			case <-l.done:
				retire(idx)
				continue
			default:
			}
			timer := time.NewTimer(stallTimeout)
			select {
			case l.ch <- chunk:
				timer.Stop()
				l.assigned = append(l.assigned, chunk)
				next++
				return true
			case <-l.done:
				timer.Stop()
				retire(idx)
			case <-timer.C:
				retire(idx)
			}
		}
		return false
	}

	// Fan out: the host gets every byte in storage order; lanes get whole
	// pages round-robin, chunked to amortise channel traffic. The host copy
	// always runs first and never waits on the side path.
	fanoutIdx := tr.Begin("fanout")
	pages := d.encodedPages()
	var hostBytes int64
	var writeErr error
	var orphaned []pageChunk // chunks no lane could take
	for off := 0; off < len(pages); off += chunkPages {
		end := off + chunkPages
		if end > len(pages) {
			end = len(pages)
		}
		chunk := pageChunk{pages: pages[off:end], firstPage: off}
		if writeErr == nil {
			for _, pg := range chunk.pages {
				n, err := hostSink.Write(pg.Bytes())
				hostBytes += int64(n)
				if err != nil {
					writeErr = fmt.Errorf("stream: host copy: %w", err)
					break
				}
			}
		}
		if !deliver(chunk) {
			orphaned = append(orphaned, chunk)
		}
	}

	// Redistribute shares of lanes retired during the fan-out. Lanes can
	// keep failing during replay; the healthy set only shrinks, so this
	// terminates, with still-homeless chunks falling through to the
	// supervisor's inline path.
	for len(pendingReplay) > 0 && len(healthy) > 0 {
		chunk := pendingReplay[0]
		pendingReplay = pendingReplay[1:]
		replayed++
		if !deliver(chunk) {
			orphaned = append(orphaned, chunk)
		}
	}
	tr.End(fanoutIdx, 0)

	// Fan in: close the surviving lanes and wait for them against a shared
	// absolute drain deadline — a lane that stalled after accepting its
	// chunks is caught here and retired like any other. The deadline is a
	// wall-clock instant, re-armed as a fresh timer per wait, so two or more
	// lanes stalled at drain time are each retired in turn (a one-shot timer
	// would fire once and leave the next stalled lane blocking forever).
	drainIdx := tr.Begin("drain")
	for _, l := range healthy {
		close(l.ch)
		l.chClosed = true
	}
	drainDeadline := time.Now().Add(stallTimeout)
	for idx := 0; idx < len(healthy); {
		l := healthy[idx]
		timer := time.NewTimer(time.Until(drainDeadline))
		select {
		case <-l.done:
			timer.Stop()
			if l.err != nil && isInjectedFault(l.err) {
				retire(idx)
				continue
			}
			idx++
		case <-timer.C:
			retire(idx)
		}
	}
	tr.End(drainIdx, 0)
	if writeErr != nil {
		return nil, writeErr
	}

	// Anything still owed to the side path — chunks of lanes retired at
	// drain time plus orphans — is binned inline by the supervisor. The
	// inline path has no lane faults by construction, so the scan always
	// terminates with an exact side-path view.
	orphaned = append(orphaned, pendingReplay...)
	if len(orphaned) > 0 {
		p, err := pre()
		if err != nil {
			return nil, err
		}
		bcfg := d.Config.Binner
		if d.Prof != nil {
			bcfg.Prof = d.Prof
			bcfg.ProfLane = "inline"
		}
		// The inline replay lane carries a chain too, but no sketch faults:
		// the supervisor's path is exact by construction.
		bcfg.Sketches = sketch.NewChain(d.Sketch)
		inline = &lane{
			parser: core.NewParser(d.Config.Column),
			binner: core.NewBinner(bcfg, p),
		}
		inline.startNS.Store(time.Now().UnixNano())
		var vals []int64
		for _, chunk := range orphaned {
			replayed++
			for j, pg := range chunk.pages {
				vals, err = inline.parser.Feed(pg.Bytes(), vals[:0])
				if err != nil {
					return nil, fmt.Errorf("stream: side path (inline replay): %w", err)
				}
				inline.binner.SetStreamPos(int64(chunk.firstPage+j) * int64(pg.Capacity()))
				inline.binner.PushAll(vals)
			}
		}
		inline.endNS.Store(time.Now().UnixNano())
	}

	// Surface real (non-injected) parse errors from surviving lanes, then
	// merge survivors plus the inline binner.
	perShard := make([]core.BinnerStats, shards)
	var laneCycles []int64
	var toMerge []*core.Binner
	fanoutSpan := tr.SpanIDAt(fanoutIdx)
	for i, l := range lanes {
		if l.retired {
			tr.Reparent(tr.AddSpan("lane", i, l.startNS.Load(), l.endNS.Load(), 0, true), fanoutSpan)
			continue
		}
		if l.err != nil {
			return nil, fmt.Errorf("stream: side path (lane %d): %w", i, l.err)
		}
		_, perShard[i] = l.binner.Finish()
		laneCycles = append(laneCycles, perShard[i].Cycles)
		toMerge = append(toMerge, l.binner)
		tr.Reparent(tr.AddSpan("lane", i, l.startNS.Load(), l.endNS.Load(), perShard[i].Cycles, false), fanoutSpan)
	}
	mergeIdx := tr.Begin("merge")
	if inline != nil {
		_, istats := inline.binner.Finish()
		laneCycles = append(laneCycles, istats.Cycles)
		toMerge = append(toMerge, inline.binner)
		tr.Reparent(tr.AddSpan("inline", -1, inline.startNS.Load(), inline.endNS.Load(), istats.Cycles, false), fanoutSpan)
	}
	if len(toMerge) == 0 {
		// Every lane retired and nothing needed replay: the relation was
		// empty. An empty binner keeps the downstream arithmetic uniform
		// (with an empty chain, so Results.Sketches stays shape-consistent).
		p, err := pre()
		if err != nil {
			return nil, err
		}
		bcfg := d.Config.Binner
		bcfg.Sketches = sketch.NewChain(d.Sketch)
		toMerge = append(toMerge, core.NewBinner(bcfg, p))
	}
	merged := toMerge[0]
	for _, b := range toMerge[1:] {
		if err := merged.Merge(b); err != nil {
			return nil, fmt.Errorf("stream: lane merge: %w", err)
		}
	}
	survivor = merged
	vec, mstats := merged.Finish()

	if d.SelfCheck && mstats.BinsQuarantined == 0 {
		if err := d.selfCheck(pages, vec); err != nil {
			return nil, err
		}
	}

	// A single lane needs no adder tree, so its accounting matches the
	// serial DataPath exactly; with several lanes the fan-in pays one
	// aggregation pass over the bin regions. When Δ is large relative to
	// the per-lane work (sparse, wide-domain columns) this pass can
	// dominate and sharding stops paying — the model makes that visible
	// rather than hiding it.
	var agg int64
	if shards > 1 {
		agg = hw.AggregationCycles(vec.NumBins(), d.Config.Binner.Mem.BinsPerLine)
	}
	mstats.Cycles = hw.CriticalPath(laneCycles, agg)
	if agg > 0 && d.Prof != nil {
		n := d.Prof.Node("merged", "aggregate", "fanin", hwprof.ReasonAgg)
		n.Add(agg)
		n.AddEvents(1)
	}

	blocks := blocksFor(d.Config, vec)
	chain := core.NewScanner().Run(vec, blocks.list...)
	chain.ChargeProfile(d.Prof, "merged")
	tr.End(mergeIdx, agg)

	clk := d.Config.Binner.Clock
	if clk.Hz == 0 {
		clk = hw.NewClock(hw.DefaultClockHz)
	}
	res := &core.Results{
		Bins:        vec,
		BinnerStats: mstats,
		Chain:       chain,
	}
	res.BinningSeconds = mstats.Seconds(clk)
	res.HistogramSeconds = chain.Seconds(clk)
	res.TotalSeconds = d.Config.ParseLatencyMicros*1e-6 + res.BinningSeconds + res.HistogramSeconds
	res.HostPathAddedSeconds = d.Config.Splitter.AddedLatencySeconds()
	blocks.fill(res, vec)
	if sc := merged.SketchChain(); sc != nil {
		// The merged chain covers every surviving lane plus replays; like
		// the histogram chain it is charged under the "merged" frame, so
		// retired lanes' discarded sketch work is never attributed.
		sc.Charge(d.Prof, "merged")
		res.Sketches = sc.Blocks()
		res.SketchCycles = sc.TotalCycles()
		res.SketchSeconds = clk.Seconds(res.SketchCycles)
	}

	transfer := float64(hostBytes) / d.Link.BytesPerSec
	rowWidth := float64(d.Rel.Schema.RowWidth())
	arrival := d.Link.BytesPerSec / rowWidth
	kept := mstats.ValuesPerSecond(clk) >= arrival || mstats.Items == 0

	out := &ParallelScanResult{
		ScanResult: ScanResult{
			HostBytes:           hostBytes,
			Results:             res,
			TransferSeconds:     transfer,
			AddedLatencySeconds: d.Config.Splitter.AddedLatencySeconds(),
			AcceleratorKeptUp:   kept,
		},
		Shards:             shards,
		PerShard:           perShard,
		AggregationCycles:  agg,
		CriticalPathCycles: mstats.Cycles,
		LanesRetired:       retiredCount,
		ReplayedChunks:     replayed,
	}
	if tr != nil {
		tr.End(rootIdx, mstats.Cycles)
		tr.AccelCycles = uint64(mstats.Cycles)
		d.Trace.Publish(tr)
	}
	d.instrument(out, time.Since(scanStart), scanID, traceID)
	return out, nil
}

// instrument publishes one completed scan's accounting to the wired
// registry: totals as counters, the last scan's per-lane cycle and stall
// accounting as labelled gauges, and the wall-clock duration into the
// scan-latency distribution. Runs once per Scan, entirely off the data path;
// a nil registry makes every call here a no-op.
func (d *ParallelDataPath) instrument(res *ParallelScanResult, wall time.Duration, scanID, traceID uint64) {
	if d.Flight != nil {
		ev := obs.ScanEvent{
			ScanID: scanID, Source: "stream", TraceID: traceID,
			Table:   d.Rel.Name,
			Column:  d.Column,
			StartNS: time.Now().Add(-wall).UnixNano(), WallNS: wall.Nanoseconds(),
			Bytes:          uint64(res.HostBytes),
			LanesRetired:   uint32(res.LanesRetired),
			ReplayedChunks: uint32(res.ReplayedChunks),
		}
		if res.Results != nil {
			ev.Rows = uint64(res.Results.BinnerStats.Items)
			ev.AccelCycles = uint64(res.Results.BinnerStats.Cycles)
		}
		d.Flight.Record(ev)
	}
	reg := d.Obs
	if reg == nil {
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
		"Wall-clock duration of parallel scans.", 1e-9).ObserveWithExemplar(wall.Nanoseconds(), traceID)
}

// isInjectedFault reports whether a lane error came from the chaos harness
// (and should be masked by replay) rather than from the data (and should
// surface to the caller).
func isInjectedFault(err error) bool {
	return errors.Is(err, errInjectedLaneFault)
}

// selfCheck re-bins the page stream serially — no lanes, no injected lane
// faults — and confirms the merged parallel view matches bin for bin.
func (d *ParallelDataPath) selfCheck(pages []*page.Page, vec *bins.Vector) error {
	p, err := core.RangeFor(d.Config.Min, d.Config.Max, d.Config.Divisor)
	if err != nil {
		return err
	}
	cfg := d.Config.Binner
	cfg.Faults = nil
	parser := core.NewParser(d.Config.Column)
	binner := core.NewBinner(cfg, p)
	var vals []int64
	for _, pg := range pages {
		vals, err = parser.Feed(pg.Bytes(), vals[:0])
		if err != nil {
			return fmt.Errorf("stream: self-check parse: %w", err)
		}
		binner.PushAll(vals)
	}
	want, _ := binner.Finish()
	if vec.NumBins() != want.NumBins() || vec.Total() != want.Total() {
		return fmt.Errorf("stream: self-check failed: parallel view (%d bins, total %d) != serial (%d bins, total %d)",
			vec.NumBins(), vec.Total(), want.NumBins(), want.Total())
	}
	for i := 0; i < want.NumBins(); i++ {
		if vec.Count(i) != want.Count(i) {
			return fmt.Errorf("stream: self-check failed: bin %d is %d, serial says %d", i, vec.Count(i), want.Count(i))
		}
	}
	return nil
}
