package core

import (
	"fmt"
	"math/bits"
	"runtime"

	"streamhist/internal/bins"
	"streamhist/internal/faults"
	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
	"streamhist/internal/sketch"
)

// BinnerConfig parameterises the Binner module simulation.
type BinnerConfig struct {
	// Clock is the circuit clock; zero value means the default 150 MHz.
	Clock hw.Clock
	// Mem is the off-chip memory model.
	Mem hw.MemParams
	// CacheBytes sizes the on-chip write-through cache; 0 disables it,
	// which re-introduces read-after-write stalls (§5.1.3).
	CacheBytes int
	// PipelineCyclesPerItem is the intrinsic pipeline issue rate — how
	// often a new item can enter the PREPROCESS stage. Two cycles per item
	// yields the 75 M values/s "Pipeline (Ideal)" row of Table 1.
	PipelineCyclesPerItem float64
	// Faults, when non-nil, routes every bin update through the ECC-checked
	// hw.Memory model so the injector's hw.mem.* points apply. Injected
	// single-bit upsets are corrected for free; uncorrectable upsets zero
	// the bin and surface as BinnerStats.BinsQuarantined so a histogram
	// built over the view can be marked degraded instead of silently wrong.
	Faults *faults.Injector
	// MemEvents, when any sink is set, receives live ECC/latency events from
	// the fault-injected memory model as they happen (in addition to the
	// cumulative BinnerStats accounting). Ignored when Faults is nil.
	MemEvents hw.MemEvents
	// Prof, when non-nil, attributes every advance of this binner's
	// completion cycle to hardware-profile nodes (lane → module → stage →
	// reason; see internal/hwprof). Per-item attribution accumulates in
	// plain local floats and is flushed to the shared profiler once, at
	// Finish/Merge time, so the profiled hot path stays branch-cheap and the
	// nil-Prof path is the untouched baseline.
	Prof *hwprof.Profiler
	// ProfLane is the outermost profile frame for this binner's cycles
	// (e.g. "lane3"); empty means "lane0". Ignored when Prof is nil.
	ProfLane string
	// Sketches, when non-nil, is the daisy chain of statistic blocks riding
	// this lane of the side path (internal/sketch). The chain sees every raw
	// value — including ones the preprocessor drops as out of range — before
	// binning, and merges across lanes like the bin state does. Nil is the
	// zero-cost baseline. When the bin region is lossless (Divisor 1, no
	// Faults here or on the chain) the order-insensitive blocks are not fed
	// value by value but completed from the bins at fan-in; see SketchChain.
	Sketches *sketch.Chain
}

// DefaultBinnerConfig returns the paper's prototype parameters.
func DefaultBinnerConfig() BinnerConfig {
	return BinnerConfig{
		Clock:                 hw.NewClock(hw.DefaultClockHz),
		Mem:                   hw.DefaultMemParams(),
		CacheBytes:            hw.DefaultCacheBytes,
		PipelineCyclesPerItem: float64(hw.DefaultClockHz) / 75_000_000,
	}
}

// BinnerStats reports what the Binner did and how long the simulated
// hardware took.
type BinnerStats struct {
	Items       int64
	Dropped     int64
	MemReadOps  int64
	MemWriteOps int64
	CacheHits   int64
	CacheMisses int64
	// StallCycles counts cycles lost to read-after-write hazards; always 0
	// when the cache covers the memory-latency window.
	StallCycles int64
	// Cycles is the completion time: the cycle at which the last write
	// commits to memory.
	Cycles int64
	// FaultsCorrected counts injected memory upsets that ECC repaired; the
	// binned view is still exact when only this counter is nonzero.
	FaultsCorrected int64
	// BinsQuarantined counts bins lost to uncorrectable memory upsets
	// (zeroed rather than served wrong); nonzero means the view is
	// incomplete and any histogram built over it must be marked degraded.
	BinsQuarantined int64
}

// Seconds converts the completion time using the given clock.
func (s BinnerStats) Seconds(clk hw.Clock) float64 { return clk.Seconds(s.Cycles) }

// Merge combines the accounting of two lanes that ran concurrently: work
// counters (items, drops, memory ops, cache traffic, stalls) add up, while
// Cycles takes the maximum — parallel lanes finish when the slowest one
// does, so the merged completion time is the critical path, not the sum.
// The aggregation pass that folds the lanes' bin regions together is not
// included here; see hw.AggregationCycles.
func (s BinnerStats) Merge(o BinnerStats) BinnerStats {
	s.Items += o.Items
	s.Dropped += o.Dropped
	s.MemReadOps += o.MemReadOps
	s.MemWriteOps += o.MemWriteOps
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.StallCycles += o.StallCycles
	s.FaultsCorrected += o.FaultsCorrected
	s.BinsQuarantined += o.BinsQuarantined
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	return s
}

// ValuesPerSecond is the sustained update rate.
func (s BinnerStats) ValuesPerSecond(clk hw.Clock) float64 {
	sec := s.Seconds(clk)
	if sec == 0 {
		return 0
	}
	return float64(s.Items) / sec
}

// Binner is the cycle-accounted simulation of the binning pipeline of
// §5.1.2: PREPROCESS → READ → UPDATE → WRITE, decoupled by a FIFO, with the
// §5.1.3 write-through cache forwarding in-flight lines so that throughput
// does not depend on data skew.
//
// Timing model. The pipeline hides memory latency (that is its purpose), so
// steady-state progress is limited by two rates, not by latency:
//
//   - the pipeline issue rate (one item per PipelineCyclesPerItem), and
//   - the memory-op budget (each cache miss costs a random-rate read plus a
//     write; each hit costs only a burst-rate write).
//
// Latency still matters in exactly the places it matters in hardware: the
// completion tail (the last write commits LatencyCycles after it issues)
// and read-after-write hazards. When the cache cannot forward a line that
// has an in-flight write, the pipeline stalls until the write commits —
// reproducing the skew-dependent slowdown the cache exists to eliminate.
// The simulation advances virtual time per item, which is exact for these
// linear constraints, and lets the model stream hundreds of millions of
// values in seconds of host time.
type Binner struct {
	cfg BinnerConfig
	pre *Preprocessor

	vec *bins.Vector
	// mem is the ECC-checked memory model, wired only when cfg.Faults is
	// set; finalizeMem folds it back into vec before the view is read.
	mem *hw.Memory

	pipeTime float64 // pipeline front time, cycles
	opTime   float64 // memory port budget time, cycles

	lastCommit float64

	// lines is the on-chip state per memory line: cache residence and the
	// commit cycle of the line's last write, read when the cache cannot
	// forward. A bin's line is its address shifted right by lineShift.
	lines     lineTable
	lineShift uint

	randomPeriod float64
	burstPeriod  float64
	latency      float64

	stats BinnerStats
	// merged accumulates the state folded in from other lanes via Merge;
	// Finish combines it with this lane's own accounting.
	merged BinnerStats

	// prof accumulates this lane's cycle attribution; nil when profiling is
	// off (the zero-cost baseline).
	prof *binnerProf

	// chain is this lane's sketch chain; nil when sketches are off (the
	// zero-cost baseline, same discipline as prof).
	chain *sketch.Chain

	// rows holds a block's bins between pushBatch's passes; spikes, made
	// with mem, their latency spikes.
	rows   [blockRows]int
	spikes []float64
}

// NewBinner wires a Binner for the given preprocessor. The returned
// Binner's vector models the off-chip bin region.
func NewBinner(cfg BinnerConfig, pre *Preprocessor) *Binner {
	return newBinner(cfg, pre, regionForm(pre.NumBins))
}

// sparseMinBins is the widest bin region a binner starts in the dense host
// form. A dense region costs the host 4 B of counts per bin wherever the
// values fall: past this bound over 16 MB a lane, many times a core's
// private cache, so scattered writes miss that cache in either form while
// the dense one makes resident every page a value lands on. A wider region
// starts sparse and costs what the scan writes, until promote finds the
// dense form smaller. Which form holds the bins is invisible to the model.
const sparseMinBins = 1 << 22

// regionForm is the host form a bin region of n bins starts in.
func regionForm(n int64) bins.Form {
	if n > sparseMinBins && n <= bins.MaxSparseBins {
		return bins.Sparse
	}
	return bins.Dense
}

// newBinner is NewBinner with the region's host form given; a fault-injected
// binner is dense whatever the form.
func newBinner(cfg BinnerConfig, pre *Preprocessor, form bins.Form) *Binner {
	if cfg.Clock.Hz == 0 {
		cfg.Clock = hw.NewClock(hw.DefaultClockHz)
	}
	if cfg.Mem.BinsPerLine == 0 {
		cfg.Mem = hw.DefaultMemParams()
	}
	if cfg.PipelineCyclesPerItem == 0 {
		cfg.PipelineCyclesPerItem = float64(hw.DefaultClockHz) / 75_000_000
	}
	lineShift := bits.TrailingZeros(uint(cfg.Mem.BinsPerLine))
	if cfg.Mem.BinsPerLine != 1<<lineShift {
		panic(fmt.Sprintf("core: %d bins per memory line is not a power of two", cfg.Mem.BinsPerLine))
	}
	b := &Binner{
		cfg:          cfg,
		pre:          pre,
		lineShift:    uint(lineShift),
		randomPeriod: float64(cfg.Clock.Hz) / float64(cfg.Mem.RandomOpsPerSec),
		burstPeriod:  float64(cfg.Clock.Hz) / float64(cfg.Mem.BurstOpsPerSec),
		latency:      float64(cfg.Mem.LatencyCycles),
	}
	if cfg.Faults == nil {
		getBinnerScratch(pre.NumBins, form).fit(b, pre.NumBins, form)
	} else {
		// The ECC-checked memory model holds the counts until finalizeMem
		// swaps them in, so the lane carries no bin row of its own — and
		// stays off the free list (see binnerScratch).
		newBinnerScratch().fit(b, 0, bins.Dense)
		b.mem = hw.NewMemory(int(pre.NumBins), cfg.Faults)
		b.mem.SetEvents(cfg.MemEvents)
		b.spikes = make([]float64, blockRows)
	}
	if cfg.Prof != nil {
		lane := cfg.ProfLane
		if lane == "" {
			lane = "lane0"
		}
		b.prof = &binnerProf{p: cfg.Prof, lane: lane}
	}
	b.chain = cfg.Sketches
	// One value per bin and no fault that could lose a count: the region is
	// the column's exact multiset, and HLL and SpaceSaving can be read off it.
	if cfg.Faults == nil && pre.Divisor == 1 {
		b.chain.Defer()
	}
	return b
}

// Push streams one value through the pipeline.
func (b *Binner) Push(value int64) {
	// The sketch chain taps the raw stream ahead of the preprocessor, so
	// values the address map drops still count toward NDV, heavy hitters,
	// and the window — the chain summarises data movement, not the binned
	// view. Nil chain costs one pointer test.
	if b.chain != nil {
		b.chain.Push(value)
	}
	one := [1]int64{value}
	b.pushBatch(one[:])
}

// PushAll streams a whole column (one page chunk on the parallel path). The
// sketch chain consumes the batch block-major, and the pipeline model runs
// as one chunk so profiled runs pay the cause decomposition once per chunk,
// not once per item.
func (b *Binner) PushAll(values []int64) {
	if b.chain != nil {
		b.chain.PushAll(values)
	}
	b.pushBatch(values)
}

// blockRows is the most rows one pass of pushBatch covers: a page of the
// served relation's rows in one block, and 2 KB of bin indices between the
// passes.
const blockRows = 256

// pushBatch advances the pipeline model over a batch of values, a block of
// at most blockRows rows at a time, in three passes over each block: address
// maps the values to bins, model runs the cycle model over those bins, and
// the bins are written in one call. The split is exact, because the model
// reads no count and the fault model draws in the first pass, in row order,
// as it would row by row. Profiled runs sum the per-cause raw cycles over the
// whole batch and decompose its completion-cycle advance once at the end
// (profile.go); the nil-prof path pays a pointer test per block.
func (b *Binner) pushBatch(values []int64) {
	prevCommit, opBefore := b.lastCommit, b.opTime
	issued := b.stats.Items
	var sums causeSums
	for len(values) > 0 {
		block := values[:min(len(values), blockRows)]
		values = values[len(block):]
		rows, spikes := b.address(block)
		sums = b.model(rows, spikes, sums)
		if b.mem == nil {
			b.vec.AddOnes(rows)
		}
	}
	if prof := b.prof; prof != nil {
		prof.attributeChunk(b.lastCommit-prevCommit,
			float64(b.stats.Items-issued)*b.cfg.PipelineCyclesPerItem,
			sums.bp, sums.stall, b.opTime-opBefore, sums.spike)
	}
	b.promote()
}

// address is the first pass: it maps block's values to their bins in b.rows
// and returns those, counting the values it drops and showing them to the
// chain. Bins are ints, as bins.Vector indexes them, so they cover every
// region a binner can hold. With the ECC memory model wired, the UPDATE of
// each bin happens here, in row order, and the latency spike an injected
// fault adds to the row's commit is returned beside its bin.
func (b *Binner) address(block []int64) (rows []int, spikes []float64) {
	// pre is a copy, whose fields the loop keeps in registers.
	pre, out, n := *b.pre, b.rows[:len(block)], 0
	for _, value := range block {
		addr, ok := pre.Address(value)
		out[n] = int(addr)
		if ok {
			n++
		}
	}
	if n < len(block) {
		// The bins will not hold these values: show them to a deferred chain.
		for _, value := range block {
			if _, ok := pre.Address(value); !ok {
				b.stats.Dropped++
				b.chain.Observe(value)
			}
		}
	}
	b.stats.Items += int64(n)
	rows = out[:n]
	if b.mem != nil {
		spikes = b.spikes[:n]
		for k, addr := range rows {
			spikes[k] = float64(b.mem.Increment(int64(addr)))
		}
	}
	return rows, spikes
}

// model is the second pass: the cycle model over one block's bins, spikes
// their latency spikes or nil. The model's times are locals for the block.
// A row whose line is resident at its home slot of the line table is a cache
// hit, taken inline; every other row goes to row. It returns sums with the
// block's backpressure, stalls and spikes added.
func (b *Binner) model(rows []int, spikes []float64, sums causeSums) causeSums {
	const maxBacklogCycles = 512
	issue, burst, latency := b.cfg.PipelineCyclesPerItem, b.burstPeriod, b.latency
	pipe, op, last := b.pipeTime, b.opTime, b.lastCommit
	slots, shift, lineShift := b.lines.slots, b.lines.shift, b.lineShift
	var hits, bpN, spikeN int64
	for k := 0; k < len(rows); k++ {
		var key uint32
		var spike float64
		// The hits run in this loop, which leaves it at a row that is not one.
		for ; k < len(rows); k++ {
			spike = 0
			if spikes != nil {
				if spike = spikes[k]; spike > 0 {
					sums.spike += spike
					spikeN++
				}
			}
			// A new item enters the pipeline no faster than the issue rate
			// allows, and no earlier than backpressure from the bounded FIFO
			// in front of the memory port permits (the queue between READ
			// and UPDATE of §5.1.2 is finite).
			pipe += issue
			if op-pipe > maxBacklogCycles {
				sums.bp += (op - maxBacklogCycles) - pipe
				bpN++
				pipe = op - maxBacklogCycles
			}
			// READ served by the cache: the freshest value of the line is
			// forwarded between pipeline stages, no memory read op, and the
			// write-through goes at burst rate. The write op only consumes
			// port bandwidth — it does not hold back reads of later items,
			// which is what the FIFO between the stages buys.
			key = lineKey(int64(rows[k]) >> (lineShift & 63))
			s := &slots[homeSlot(key, shift)]
			if s.key != key || !s.resident {
				break
			}
			hits++
			op += burst
			commit := maxf(op, pipe) + latency + spike
			s.commit = commit
			last = maxf(commit, last)
		}
		if k == len(rows) {
			break
		}
		var commit, stall float64
		pipe, op, commit, stall = b.row(key, spike, pipe, op)
		sums.stall += stall
		last = maxf(commit, last)
		slots, shift = b.lines.slots, b.lines.shift
	}
	b.pipeTime, b.opTime, b.lastCommit = pipe, op, last
	b.stats.CacheHits += hits
	b.stats.MemWriteOps += int64(len(rows))
	if b.prof != nil {
		b.prof.bpN += bpN
		b.prof.spikeN += spikeN
	}
	return sums
}

// row is the model of a row whose line is not resident at its home slot.
// One probe of the line table, adding the line if it is absent, decides the
// read, the write's rate and whether the line enters the cache, and gives
// the commit cycle of the line's write in flight. It takes the pipeline and
// port times after the row's issue, and returns them after the row with the
// row's commit cycle and the cycles it stalled.
func (b *Binner) row(key uint32, spike, pipe, op float64) (float64, float64, float64, float64) {
	lt := &b.lines
	j := lt.find(key, op)
	slot := &lt.slots[j]
	hit := slot.resident
	var dataReady, stall float64
	if hit {
		b.stats.CacheHits++
		dataReady = pipe
	} else {
		b.stats.CacheMisses++
		readIssue := maxf(pipe, op)
		// Without forwarding, a read that overlaps an in-flight write to
		// the same line must stall the pipeline until that write commits
		// (§5.1.3). A line with no write in flight reads 0, which never
		// exceeds readIssue.
		if pendingCommit := slot.commit; pendingCommit > readIssue {
			stall = pendingCommit - readIssue
			if b.prof != nil {
				b.prof.stallN++
			}
			b.stats.StallCycles += int64(stall)
			pipe, readIssue = pendingCommit, pendingCommit
		}
		op = maxf(op, readIssue) + b.randomPeriod
		dataReady = readIssue + b.latency
		b.stats.MemReadOps++
	}
	// WRITE: write-through. Ops to recently touched (cached) lines go at
	// burst rate; cold lines pay the random-access rate.
	period := b.randomPeriod
	if hit {
		period = b.burstPeriod
	}
	op += period
	commit := maxf(op, dataReady) + b.latency + spike
	slot.commit = commit
	if !hit {
		lt.admit(j)
	}
	return pipe, op, commit, stall
}

// promote moves a sparse bin region into the dense form once it takes more
// host bytes than the dense one would, past which the sparse form saves
// nothing. It runs once per batch and once per merge, never per value, and
// moves every count over as it is.
func (b *Binner) promote() {
	if b.vec.Form() == bins.Sparse && b.vec.Bytes() > bins.DenseBytes(int(b.pre.NumBins)) {
		b.vec.Densify()
	}
}

// Merge folds another lane's state into b: bin counts add up (the §7 adder
// tree over replicated memories) and the accounting merges per
// BinnerStats.Merge, so a subsequent Finish reports the combined work with
// the max-lane critical path as the completion cycle. Both binners must
// share the same preprocessor geometry; other is left untouched and must
// not receive further Pushes that are expected to show up in b.
func (b *Binner) Merge(other *Binner) error {
	b.finalizeMem()
	other.finalizeMem()
	// Two deferred chains merge as they are and fold once over the merged
	// region. If only one side deferred, its fold has to happen now, over its
	// own region, while that still holds its values and nothing else.
	if b.chain != nil && other.chain != nil && b.chain.Deferred() != other.chain.Deferred() {
		b.chain.Fold(b.vec)
		other.chain.Fold(other.vec)
	}
	if err := b.vec.Merge(other.vec); err != nil {
		return err
	}
	b.promote()
	// Fold the other lane's sketch chain in alongside its bin state. A lane
	// without a chain contributes nothing; if only the other lane carries
	// one (an inline replay lane, say), adopt it wholesale.
	if other.chain != nil {
		if b.chain == nil {
			b.chain = other.chain
		} else if err := b.chain.Merge(other.chain); err != nil {
			return err
		}
	}
	b.merged = b.merged.Merge(other.snapshotStats())
	return nil
}

// MergeLanes merges others into b, as Merge does one at a time. When every
// region is sparse and every chain is deferred alike, so that no chain must
// fold between two merges, the regions merge at once, partition by
// partition (bins.Vector.MergeAll), on one goroutine per region, at most
// one per processor: the lanes have just joined, so their cores are free to
// share the merge.
func (b *Binner) MergeLanes(others []*Binner) error {
	var buf [16]*bins.Vector
	srcs := buf[:0]
	b.finalizeMem()
	for _, o := range others {
		o.finalizeMem()
		if (o.chain == nil) != (b.chain == nil) || o.chain.Deferred() != b.chain.Deferred() {
			srcs = nil
			break
		}
		srcs = append(srcs, o.vec)
	}
	if len(srcs) == 0 || !b.vec.MergeAll(srcs, min(len(srcs)+1, runtime.GOMAXPROCS(0))) {
		for _, o := range others {
			if err := b.Merge(o); err != nil {
				return err
			}
		}
		return nil
	}
	b.promote()
	for _, o := range others {
		if o.chain != nil {
			if err := b.chain.Merge(o.chain); err != nil {
				return err
			}
		}
		b.merged = b.merged.Merge(o.snapshotStats())
	}
	return nil
}

// SetStreamPos repositions the sketch chain's global stream cursor. The
// parallel path calls this at every page boundary with pageIndex·capacity —
// pages are fully packed, so that is the page's first row ordinal — which
// keeps position-sensitive blocks (the sliding window) exact no matter which
// lane a page lands on or when a retired lane's pages are replayed. A no-op
// without a chain.
func (b *Binner) SetStreamPos(pos int64) {
	if b.chain != nil {
		b.chain.SetPos(pos)
	}
}

// FoldSketches does the part of a deferred chain's fold that needs only this
// lane's bins — the HLL registers — so that lanes can do it side by side,
// each when its input ends, before they merge. A sparse region combines its
// partitions' write logs here for the same reason, chain or none: every
// write is sorted on its lane's goroutine, and the merge of two combined
// regions is a pass per partition that sorts nothing. Optional: SketchChain
// folds whatever is still owed, and a read combines whatever is still
// logged. Idempotent, and a no-op for a streaming chain.
func (b *Binner) FoldSketches() {
	b.vec.Combine()
	b.chain.FoldDistinct(b.vec)
}

// SketchChain returns the lane's sketch chain (nil when sketches are off),
// complete: blocks that were deferred to the bin region are folded from it
// here, once. After Merge the chain covers every merged lane, so read it off
// the binner that survived the last Merge, after that Merge.
func (b *Binner) SketchChain() *sketch.Chain {
	// No finalizeMem needed: deferral excludes the fault-injected memory
	// model, and Merge finalises before a chain can be adopted.
	b.chain.Fold(b.vec)
	return b.chain
}

// finalizeMem folds the ECC-checked memory model (if one is wired) back
// into the plain bin vector: the final scrub pass corrects what it can,
// quarantines what it cannot, and the fault counters move into the lane's
// statistics. Idempotent; a no-op without fault injection.
func (b *Binner) finalizeMem() {
	if b.mem == nil {
		return
	}
	b.vec = bins.FromCounts(b.pre.Min, b.pre.Divisor, b.mem.Counts())
	b.stats.FaultsCorrected = b.mem.Corrected()
	b.stats.BinsQuarantined = b.mem.Quarantined()
	b.mem = nil
}

// snapshotStats returns the lane's current accounting — own work plus
// anything already folded in via Merge — without disturbing the lane.
func (b *Binner) snapshotStats() BinnerStats {
	s := b.stats
	s.Cycles = int64(b.lastCommit + 0.5)
	// Publish this lane's cycle attribution (own work only — merged lanes
	// flushed themselves when Merge snapshotted them); idempotent.
	b.flushProf(s)
	return s.Merge(b.merged)
}

// Finish returns the binned view and final statistics. The completion cycle
// is when the last write has committed — the moment the Binner "will send
// the total count to the Histogram module, signaling that it finished".
// After Merge the statistics cover every merged lane and Cycles is the
// slowest lane's completion (see BinnerStats.Merge).
func (b *Binner) Finish() (*bins.Vector, BinnerStats) {
	b.finalizeMem()
	return b.vec, b.snapshotStats()
}

// Vector exposes the bin region (useful mid-stream for tests). Under fault
// injection this finalizes the ECC scrub first.
func (b *Binner) Vector() *bins.Vector {
	b.finalizeMem()
	return b.vec
}

// emptyVector returns a zeroed bin region of n bins from min, in the form a
// binner's region of n bins starts in.
func emptyVector(min, divisor, n int64) *bins.Vector {
	v := new(bins.Vector)
	v.Recycle(min, divisor, int(n), regionForm(n))
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
