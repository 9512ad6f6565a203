package core

import (
	"runtime"
	"sync"

	"streamhist/internal/bins"
	"streamhist/internal/hw"
)

// binnerScratch is the reusable allocation footprint of one binner lane: the
// bin region and the line table. The parallel scan path builds N lanes per
// scan; recycling their state keeps the steady-state scan loop free of
// per-lane allocations, and — because a parked vector knows which of its
// bins were written — free of per-lane clears over the whole value range as
// well. Sparse regions are parked like dense ones.
//
// Scratch is parked dirty and reset on reuse, so a recycled lane is
// observationally identical to a fresh one (the pooled-reuse property tests
// compare histograms bytewise). The line table is small and cleared whole.
// Fault-injected binners keep their counts in hw.Memory, not in the vector,
// so they neither draw from the free list nor return to it.
type binnerScratch struct {
	vec   *bins.Vector
	lines lineTable

	parkedAt uint64 // scratchList.gcs when parked
}

// scratchList is the free list of parked scratch. Every parked scratch is
// visible to every lane, so the host holds one region per live lane and
// none beside them. A sync.Pool would not do: its per-P slot is invisible
// to a Get on another P, so a lane misses a parked region and allocates
// another. What the list shares with sync.Pool is that scratch parked
// across two GC cycles is dropped, so an idle process lets its regions go.
// It learns of the cycles from a finalizer on a sentinel, armed while
// anything is parked.
var scratchList struct {
	sync.Mutex
	parked []*binnerScratch
	gcs    uint64 // sentinel finalizers run so far
	armed  bool
}

// getBinnerScratch takes the parked scratch whose region fits n bins in form
// most tightly, else the largest parked one, else an empty one; fit decides
// what of it suits the requested geometry.
func getBinnerScratch(n int64, form bins.Form) *binnerScratch {
	l := &scratchList
	l.Lock()
	defer l.Unlock()
	best := -1
	for k, sc := range l.parked {
		if best < 0 || fitsBetter(sc.capacity(form), l.parked[best].capacity(form), n) {
			best = k
		}
	}
	if best < 0 {
		return newBinnerScratch()
	}
	sc := l.parked[best]
	last := len(l.parked) - 1
	l.parked[best], l.parked[last] = l.parked[last], nil
	l.parked = l.parked[:last]
	return sc
}

// capacity is how many bins sc's region takes in form without allocating:
// none when the region is in the other form.
func (sc *binnerScratch) capacity(form bins.Form) int64 {
	if sc.vec.Form() != form {
		return 0
	}
	return int64(sc.vec.Capacity())
}

// fitsBetter reports whether a region of capacity a bins suits a request
// for n bins better than one of capacity b: one that fits beats one that
// does not, the smaller of two that fit wins, and the larger of two that do
// not.
func fitsBetter(a, b, n int64) bool {
	if (a >= n) != (b >= n) {
		return a >= n
	}
	if a >= n {
		return a < b
	}
	return a > b
}

// putBinnerScratch parks sc on the free list.
func putBinnerScratch(sc *binnerScratch) {
	l := &scratchList
	l.Lock()
	defer l.Unlock()
	sc.parkedAt = l.gcs
	l.parked = append(l.parked, sc)
	if !l.armed {
		l.armed = true
		armGCSentinel()
	}
}

// gcSentinel carries a pointer so it is never tiny-allocated beside another
// object that could keep its block alive past a cycle.
type gcSentinel struct{ _ *byte }

func armGCSentinel() { runtime.SetFinalizer(&gcSentinel{}, dropStaleScratch) }

// dropStaleScratch runs once per GC cycle while anything is parked: it
// drops the scratch parked across two cycles and re-arms the sentinel for
// the next one.
func dropStaleScratch(*gcSentinel) {
	l := &scratchList
	l.Lock()
	defer l.Unlock()
	l.gcs++
	kept := l.parked[:0]
	for _, sc := range l.parked {
		if l.gcs-sc.parkedAt < 2 {
			kept = append(kept, sc)
		}
	}
	clear(l.parked[len(kept):])
	l.parked = kept
	if l.armed = len(kept) > 0; l.armed {
		armGCSentinel()
	}
}

// newBinnerScratch returns scratch that holds nothing yet.
func newBinnerScratch() *binnerScratch { return &binnerScratch{vec: new(bins.Vector)} }

// fit hands b an empty bin region of regionBins bins in form and an empty
// line table for b's cache, reusing whatever parts of the scratch are large
// enough and allocating the rest.
func (sc *binnerScratch) fit(b *Binner, regionBins int64, form bins.Form) {
	sc.vec.Recycle(b.pre.Min, b.pre.Divisor, int(regionBins), form)
	sc.lines.reset(b.cfg.CacheBytes / hw.LineBytes)
	b.vec, b.lines = sc.vec, sc.lines
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
	if b == nil || b.vec == nil {
		return
	}
	if b.cfg.Faults == nil {
		putBinnerScratch(&binnerScratch{vec: b.vec, lines: b.lines})
	}
	b.vec, b.lines, b.chain = nil, lineTable{}, nil
}
