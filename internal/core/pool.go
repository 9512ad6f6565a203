package core

import (
	"sync"

	"streamhist/internal/bins"
	"streamhist/internal/hw"
)

// binnerScratch is the reusable allocation footprint of one binner lane: the
// bin region (counts plus occupancy index), the RAW-hazard table, and the
// on-chip cache model. The parallel scan path builds N lanes per scan;
// recycling their state keeps the steady-state scan loop free of per-lane
// allocations, and — because a parked vector knows which of its bins were
// written — free of per-lane clears over the whole value range as well.
//
// Scratch is parked dirty and reset on reuse, so a recycled lane is
// observationally identical to a fresh one (the pooled-reuse property tests
// compare histograms bytewise). What makes the sparse reset sound is that
// the hazard table is only ever written for the line of a bin that is
// incremented in the same step: every non-zero pending entry sits at line
// i/binsPerLine of some occupied bin i of vec, so one walk over the occupied
// bins clears both. Fault-injected binners break that pairing (their counts
// live in hw.Memory, and a quarantined bin is zeroed after the fact), so
// they neither draw from the pool nor return to it.
type binnerScratch struct {
	vec         *bins.Vector
	pending     []float64
	binsPerLine int64
	cache       *hw.Cache
}

var binnerScratchPool sync.Pool

// getBinnerScratch returns pooled scratch, or an empty one; fit decides what
// suits the requested geometry.
func getBinnerScratch() *binnerScratch {
	if v := binnerScratchPool.Get(); v != nil {
		return v.(*binnerScratch)
	}
	return newBinnerScratch()
}

// newBinnerScratch returns scratch that holds nothing yet.
func newBinnerScratch() *binnerScratch { return &binnerScratch{vec: new(bins.Vector)} }

// fit hands b an empty bin region of regionBins bins, and a zeroed hazard
// table and a reset cache sized for b's preprocessor, reusing whatever parts
// of the scratch are large enough and allocating the rest.
func (sc *binnerScratch) fit(b *Binner, regionBins int64) {
	binsPerLine := int64(b.cfg.Mem.BinsPerLine)
	numLines := (b.pre.NumBins + binsPerLine - 1) / binsPerLine

	pending, oldPerLine := sc.pending, sc.binsPerLine
	sc.vec.Recycle(b.pre.Min, b.pre.Divisor, int(regionBins), func(i int) {
		pending[int64(i)/oldPerLine] = 0
	})
	if int64(cap(pending)) >= numLines {
		pending = pending[:numLines]
	} else {
		pending = make([]float64, numLines)
	}

	cache := sc.cache
	if cache != nil && cache.Lines() == b.cfg.CacheBytes/hw.LineBytes && cache.Universe() == numLines {
		cache.Reset()
	} else {
		cache = hw.NewCache(b.cfg.CacheBytes, hw.LineBytes, numLines)
	}
	b.vec, b.pending, b.cache = sc.vec, pending, cache
}

// Release parks the binner's reusable state for a future lane. It must only
// be called once the binner is provably done and private: the lane goroutine
// joined, and neither the binner nor its Finish/Vector result is referenced
// by anything that outlives the call — a scan result that carries the vector
// (core.Results.Bins) pins its binner for good. The server's merge survivor
// qualifies once the histogram is built: only the histogram and the sketch
// blocks escape into the catalog, the vector does not. The sketch chain is
// NOT released here (its blocks may be shared by a Merge adoption or live in
// the catalog); call SketchChain().Release() separately under the caller's
// aliasing guarantees. Idempotent.
func (b *Binner) Release() {
	if b == nil || b.cache == nil {
		return
	}
	if b.cfg.Faults == nil {
		binnerScratchPool.Put(&binnerScratch{
			vec: b.vec, pending: b.pending, cache: b.cache,
			binsPerLine: int64(b.cfg.Mem.BinsPerLine),
		})
	}
	b.vec = nil
	b.pending = nil
	b.cache = nil
	b.chain = nil
}
