package core

import (
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
	cfg   BinnerConfig
	pre   *Preprocessor
	cache *hw.Cache

	vec *bins.Vector
	// mem is the ECC-checked memory model, wired only when cfg.Faults is
	// set; finalizeMem folds it back into vec before the view is read.
	mem *hw.Memory

	pipeTime float64 // pipeline front time, cycles
	opTime   float64 // memory port budget time, cycles

	lastCommit float64

	// haz is the RAW-hazard table, read when the cache cannot forward. It
	// takes the bin region's host form.
	haz hazards

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
}

// NewBinner wires a Binner for the given preprocessor. The returned
// Binner's vector models the off-chip bin region.
func NewBinner(cfg BinnerConfig, pre *Preprocessor) *Binner {
	return newBinner(cfg, pre, regionForm(pre.NumBins))
}

// sparseMinBins is the widest bin region a binner starts in the dense host
// form. A dense region costs the host 4 B of counts and 1 B of hazard table
// per bin wherever the values fall: past this bound over 20 MB a lane, ten
// times a core's private cache, so scattered writes miss that cache in
// either form while the dense one makes resident every page a value lands
// on. A wider region starts sparse and costs what the scan writes, until
// promote finds the dense form smaller. Which form holds the bins is
// invisible to the model.
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
	b := &Binner{
		cfg:          cfg,
		pre:          pre,
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

// pushBatch advances the pipeline model over a batch of values. Profiled
// runs accumulate the per-cause raw sums in locals and decompose the chunk's
// total completion-cycle advance once at the end (profile.go); the nil-prof
// path pays one pointer test per chunk.
func (b *Binner) pushBatch(values []int64) {
	prof := b.prof
	var prevCommit, opBefore float64
	var issueN int64
	var bpSum, stallSum, spikeSum float64
	if prof != nil {
		prevCommit = b.lastCommit
		opBefore = b.opTime
	}

	binsPerLine := int64(b.cfg.Mem.BinsPerLine)
	for _, value := range values {
		addr, ok := b.pre.Address(value)
		if !ok {
			b.stats.Dropped++
			// The bins will not hold this value: show it to a deferred chain.
			b.chain.Observe(value)
			continue
		}
		b.stats.Items++
		issueN++

		// A new item enters the pipeline no faster than the issue rate
		// allows, and no earlier than backpressure from the bounded FIFO in
		// front of the memory port permits (the queue between READ and
		// UPDATE of §5.1.2 is finite).
		const maxBacklogCycles = 512
		b.pipeTime += b.cfg.PipelineCyclesPerItem
		if b.opTime-b.pipeTime > maxBacklogCycles {
			if prof != nil {
				bpSum += (b.opTime - maxBacklogCycles) - b.pipeTime
				prof.bpN++
			}
			b.pipeTime = b.opTime - maxBacklogCycles
		}

		line := addr / binsPerLine
		pending := b.haz.at(line)

		// One cache lookup decides the read, the write's rate and whether
		// the line enters the cache.
		hit := b.cache.Lookup(line)
		var dataReady float64
		if hit {
			// READ served by the cache: the freshest value of the line is
			// forwarded between pipeline stages; no memory read op.
			b.stats.CacheHits++
			dataReady = b.pipeTime
		} else {
			b.stats.CacheMisses++
			readIssue := maxf(b.pipeTime, b.opTime)
			// Without forwarding, a read that overlaps an in-flight write to
			// the same line must stall the pipeline until that write commits
			// (§5.1.3). The table's zero value never exceeds readIssue, so
			// an untouched line never stalls.
			if pendingCommit := *pending; pendingCommit > readIssue {
				if prof != nil {
					stallSum += pendingCommit - readIssue
					prof.stallN++
				}
				b.stats.StallCycles += int64(pendingCommit - readIssue)
				b.pipeTime = pendingCommit
				readIssue = pendingCommit
			}
			b.opTime = maxf(b.opTime, readIssue) + b.randomPeriod
			dataReady = readIssue + b.latency
			b.stats.MemReadOps++
		}

		// UPDATE: increment the bin (the functional effect). Under fault
		// injection the update goes through the ECC-checked memory model and
		// an injected latency spike stretches this item's commit.
		var spike float64
		if b.mem != nil {
			spike = float64(b.mem.Increment(addr))
			if prof != nil && spike > 0 {
				spikeSum += spike
				prof.spikeN++
			}
		} else {
			b.vec.AddAt(int(addr), 1)
		}

		// WRITE: write-through. Ops to recently touched (cached) lines go at
		// burst rate; cold lines pay the random-access rate. The write op
		// only consumes port bandwidth — it does not hold back reads of
		// later items, which is what the FIFO between the stages buys.
		period := b.randomPeriod
		if hit {
			period = b.burstPeriod
		}
		b.opTime += period
		writeIssue := maxf(b.opTime, dataReady)
		commit := writeIssue + b.latency + spike
		b.stats.MemWriteOps++
		*pending = commit
		if commit > b.lastCommit {
			b.lastCommit = commit
		}
		if !hit {
			b.cache.Insert(line)
		}
	}

	if prof != nil {
		prof.attributeChunk(b.lastCommit-prevCommit,
			float64(issueN)*b.cfg.PipelineCyclesPerItem,
			bpSum, stallSum, b.opTime-opBefore, spikeSum)
	}
	b.promote()
}

// promote moves a sparse binner into the dense forms once its tables take
// more host bytes than the dense ones would, past which the sparse form
// saves nothing. It runs once per batch and once per merge, never per
// value, and moves every count and hazard entry over as it is.
func (b *Binner) promote() {
	if b.vec.Form() != bins.Sparse {
		return
	}
	lines := b.cache.Universe()
	if b.vec.Bytes()+b.haz.bytes() > bins.DenseBytes(int(b.pre.NumBins))+8*int(lines) {
		b.vec.Densify()
		b.haz.densify(lines)
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
// each when its input ends, before they merge. Optional: SketchChain folds
// whatever is still owed. Idempotent, and a no-op for a streaming chain.
func (b *Binner) FoldSketches() { b.chain.FoldDistinct(b.vec) }

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
	s.CacheHits = b.cache.Hits()
	s.CacheMisses = b.cache.Misses()
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
	v.Recycle(min, divisor, int(n), regionForm(n), nil)
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
