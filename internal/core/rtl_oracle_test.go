package core

import (
	"streamhist/internal/bins"
	"streamhist/internal/hw"
)

// RTLBinner is a literal cycle-stepped simulation of the binning pipeline
// of Figure 10 — every clock tick advances the PREPROCESS, READ, UPDATE and
// WRITE stages one step, the memory port issues at most what its op-rate
// budget allows, reads come back after the access latency, and the
// write-through cache forwards in-flight lines.
//
// The fast Binner (binner.go) advances virtual time per item, which is
// exact for steady-state throughput but approximates transient interleaving.
// RTLBinner is the ground-truth oracle the fast one is validated against:
// identical functional output always, throughput within a few percent on
// the Table 1 workloads. It is ~50× slower per item and nothing serves it,
// so it lives in test code and runs on smaller inputs.
type RTLBinner struct {
	cfg   BinnerConfig
	pre   *Preprocessor
	cache *fifoCache
	vec   *bins.Vector

	cycle int64

	// Memory port: a token bucket in units of one random op.
	credit         float64
	creditPerCycle float64
	burstCost      float64
	latency        int64

	// Pipeline issue pacing.
	issueEvery  float64
	issueCarry  float64
	issuedItems int64

	// Stage queues. readQ feeds the READ stage; waitQ is the FIFO between
	// READ and UPDATE (§5.1.2); writeQ feeds the WRITE stage.
	readQ  []rtlItem
	waitQ  []rtlItem
	writeQ []rtlItem

	// pendingWrites maps a memory line to its latest commit cycle.
	pendingWrites map[int64]int64

	lastCommit int64
	stats      BinnerStats
}

// rtlItem is one value in flight.
type rtlItem struct {
	addr, line  int64
	dataReadyAt int64
	forwarded   bool
	counted     bool // hit/miss already recorded (avoids recount on stalls)
}

// rtlFIFOCap bounds the READ→UPDATE queue, providing backpressure.
const rtlFIFOCap = 64

// NewRTLBinner builds the tick-level model.
func NewRTLBinner(cfg BinnerConfig, pre *Preprocessor) *RTLBinner {
	if cfg.Clock.Hz == 0 {
		cfg.Clock = hw.NewClock(hw.DefaultClockHz)
	}
	if cfg.Mem.BinsPerLine == 0 {
		cfg.Mem = hw.DefaultMemParams()
	}
	if cfg.PipelineCyclesPerItem == 0 {
		cfg.PipelineCyclesPerItem = float64(hw.DefaultClockHz) / 75_000_000
	}
	burstCost := float64(cfg.Mem.RandomOpsPerSec) / float64(cfg.Mem.BurstOpsPerSec)
	numLines := (pre.NumBins + int64(cfg.Mem.BinsPerLine) - 1) / int64(cfg.Mem.BinsPerLine)
	return &RTLBinner{
		cfg:            cfg,
		pre:            pre,
		cache:          newFIFOCache(cfg.CacheBytes, hw.LineBytes, numLines),
		vec:            emptyVector(pre.Min, pre.Divisor, pre.NumBins),
		creditPerCycle: float64(cfg.Mem.RandomOpsPerSec) / float64(cfg.Clock.Hz),
		burstCost:      burstCost,
		latency:        cfg.Mem.LatencyCycles,
		issueEvery:     cfg.PipelineCyclesPerItem,
		pendingWrites:  make(map[int64]int64),
	}
}

// Run streams the values through the pipeline tick by tick and returns the
// binned view and statistics.
func (r *RTLBinner) Run(values []int64) (*bins.Vector, BinnerStats) {
	idx := 0
	for idx < len(values) || len(r.readQ) > 0 || len(r.waitQ) > 0 || len(r.writeQ) > 0 {
		r.cycle++
		r.credit += r.creditPerCycle
		if r.credit > 2 {
			r.credit = 2 // the port cannot bank unused slots indefinitely
		}

		r.tickWrite()
		r.tickUpdate()
		r.tickRead()
		idx = r.tickInput(values, idx)

		// Retire old pending-write records.
		if len(r.pendingWrites) > 4*r.cache.Lines()+256 {
			for l, c := range r.pendingWrites {
				if c <= r.cycle {
					delete(r.pendingWrites, l)
				}
			}
		}
	}
	r.stats.Cycles = r.lastCommit
	r.stats.CacheHits = r.cache.Hits()
	r.stats.CacheMisses = r.cache.Misses()
	return r.vec, r.stats
}

// tickWrite issues the oldest completed update's write when the port has
// budget. Writes have port priority so the pipeline drains. The burst
// discount applies only to lines that were already cache-resident when the
// item entered the pipeline (row-buffer locality); a cold line's first
// write pays the random-access rate, which is what bounds the worst case
// at 20 M values/s.
func (r *RTLBinner) tickWrite() {
	if len(r.writeQ) == 0 {
		return
	}
	it := r.writeQ[0]
	cost := 1.0
	if it.forwarded {
		cost = r.burstCost
	}
	if r.credit < cost {
		return
	}
	r.credit -= cost
	commit := r.cycle + r.latency
	r.pendingWrites[it.line] = commit
	if commit > r.lastCommit {
		r.lastCommit = commit
	}
	r.stats.MemWriteOps++
	r.writeQ = r.writeQ[1:]
}

// tickUpdate pops the FIFO head once its data is available (forwarded from
// the cache or returned by memory), increments the bin, and hands the line
// to the write stage. One update per cycle.
func (r *RTLBinner) tickUpdate() {
	if len(r.waitQ) == 0 {
		return
	}
	it := r.waitQ[0]
	if !it.forwarded && r.cycle < it.dataReadyAt {
		return
	}
	r.vec.AddCount(r.pre.Min+it.addr*r.pre.Divisor, 1)
	r.waitQ = r.waitQ[1:]
	r.writeQ = append(r.writeQ, it)
}

// tickRead serves the oldest preprocessed item. A cache hit forwards the
// line immediately (its freshest value lives with the in-flight items
// ahead in the FIFO). A miss needs port budget, must respect in-flight
// writes to the same line (the RAW hazard of §5.1.3), and registers the
// line in the cache right away — the lookup table "stores the memory
// addresses belonging to the items currently in the pipeline", so
// subsequent same-line items forward instead of re-reading.
func (r *RTLBinner) tickRead() {
	if len(r.readQ) == 0 || len(r.waitQ) >= rtlFIFOCap {
		return
	}
	it := &r.readQ[0]
	if r.cache.Contains(it.line) {
		if !it.counted {
			r.cache.Lookup(it.line) // record the hit
			it.counted = true
		}
		it.forwarded = true
		r.waitQ = append(r.waitQ, *it)
		r.readQ = r.readQ[1:]
		return
	}
	if !it.counted {
		r.cache.Lookup(it.line) // record the miss
		it.counted = true
	}
	if commit, busy := r.pendingWrites[it.line]; busy && commit > r.cycle {
		r.stats.StallCycles++
		return
	}
	if r.credit < 1 {
		return
	}
	r.credit--
	it.dataReadyAt = r.cycle + r.latency
	r.stats.MemReadOps++
	r.cache.Insert(it.line)
	r.waitQ = append(r.waitQ, *it)
	r.readQ = r.readQ[1:]
}

// tickInput admits new values at the pipeline issue rate, subject to
// backpressure from the read queue.
func (r *RTLBinner) tickInput(values []int64, idx int) int {
	r.issueCarry++
	for r.issueCarry >= r.issueEvery && idx < len(values) && len(r.readQ) < rtlFIFOCap {
		r.issueCarry -= r.issueEvery
		v := values[idx]
		idx++
		addr, ok := r.pre.Address(v)
		if !ok {
			r.stats.Dropped++
			continue
		}
		r.stats.Items++
		r.readQ = append(r.readQ, rtlItem{addr: addr, line: addr / int64(r.cfg.Mem.BinsPerLine)})
	}
	if r.issueCarry > 4*r.issueEvery {
		r.issueCarry = 4 * r.issueEvery // stalled input cannot bank issue slots forever
	}
	return idx
}

// fifoCache models the small on-chip write-through cache of §5.1.3 as the
// oracle sees it, apart from the binner's line table: a fixed-size
// FIFO-replacement table of line addresses, which matches the hardware's
// "items currently in the pipeline" framing (the set of recently touched
// lines within the memory-latency window). Residence is a flat byte table
// indexed by line address over the line universe the caller declares, and
// the FIFO is a fixed ring.
type fifoCache struct {
	lines int

	// ring is the FIFO of resident line addresses, a fixed circular buffer
	// of capacity lines; head is the oldest entry once full.
	ring []int64
	head int

	// resident[line] is non-zero while the line is in the ring.
	resident []uint8

	hits   int64
	misses int64
}

// newFIFOCache builds a cache holding sizeBytes worth of memory lines of
// lineBytes each, for line addresses in [0, universe). A size of zero
// disables the cache (every access misses). Lines outside the universe are
// uncacheable: they always miss and Insert ignores them.
func newFIFOCache(sizeBytes, lineBytes int, universe int64) *fifoCache {
	n := sizeBytes / lineBytes
	return &fifoCache{
		lines:    n,
		ring:     make([]int64, 0, n),
		resident: make([]uint8, max(universe, 0)),
	}
}

// Lines returns the capacity in memory lines.
func (c *fifoCache) Lines() int { return c.lines }

// Lookup reports whether the line is resident, counting a hit or a miss.
func (c *fifoCache) Lookup(lineAddr int64) bool {
	if c.Contains(lineAddr) {
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports residence without touching the statistics.
func (c *fifoCache) Contains(lineAddr int64) bool {
	return uint64(lineAddr) < uint64(len(c.resident)) && c.resident[lineAddr] != 0
}

// Insert makes the line resident (write-through: the caller has also issued
// the memory write). The oldest line is evicted when at capacity.
func (c *fifoCache) Insert(lineAddr int64) {
	// Outside the declared universe the table cannot track the line; treat
	// it as uncacheable rather than corrupt the ring.
	if c.lines == 0 || uint64(lineAddr) >= uint64(len(c.resident)) || c.resident[lineAddr] != 0 {
		return
	}
	if len(c.ring) < c.lines {
		c.ring = append(c.ring, lineAddr)
	} else {
		c.resident[c.ring[c.head]] = 0
		c.ring[c.head] = lineAddr
		c.head++
		if c.head == c.lines {
			c.head = 0
		}
	}
	c.resident[lineAddr] = 1
}

// Hits returns the number of lookup hits so far.
func (c *fifoCache) Hits() int64 { return c.hits }

// Misses returns the number of lookup misses so far.
func (c *fifoCache) Misses() int64 { return c.misses }
