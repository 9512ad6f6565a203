package sketch

import "streamhist/internal/bins"

// Deferred feeding. HyperLogLog registers and heavy-hitter counts are
// functions of the *multiset* of values, and a lane whose bin region is
// lossless already holds that multiset as exact per-value counts. Such a lane
// (core.NewBinner decides) defers its chain: Push and PushAll only book the
// batch on those two blocks — items advance, so every cycle figure is what
// streaming would have charged — while the window, a function of stream
// *position*, keeps consuming. Values the region does not hold (dropped as
// out of range) go to Observe one by one. At fan-in the bins complete the
// blocks: FoldDistinct raises the HLL registers once per distinct value, lane
// by lane, and Fold fills SpaceSaving with the exact top-k of the merged
// region. A chain nobody defers — standalone, lossy divisor, any fault
// injector — streams exactly as before.

// Defer puts the chain in deferred mode, unless fault points are wired: such
// a chain stays streaming.
func (c *Chain) Defer() {
	if c != nil && c.inj == nil {
		c.deferred = true
	}
}

// Deferred reports whether blocks of this chain still wait for a Fold.
func (c *Chain) Deferred() bool { return c != nil && c.deferred }

// book counts n values as consumed by a block a fold will complete; false
// means the block has to see the values themselves.
func book(b StatBlock, n int64) bool {
	switch b := b.(type) {
	case *HLL:
		b.items += n
	case *SpaceSaving:
		b.items += n
	default:
		return false
	}
	return true
}

// Observe shows a deferred chain one value that no fold will: it was pushed
// (and booked) but left out of the bin region. A no-op on a streaming chain,
// whose blocks saw the value when it was pushed.
func (c *Chain) Observe(v int64) {
	if !c.Deferred() {
		return
	}
	one := [1]int64{v}
	for i := range c.slots {
		switch b := c.slots[i].block.(type) {
		case *HLL:
			b.observe(one[:])
		case *SpaceSaving:
			b.observe(one[:])
		}
	}
}

// FoldDistinct completes the HLL block from the bin region this chain's
// values were counted into. Registers merge by maximum, so each lane may do
// this on its own region before the lanes merge — in parallel — and the
// result is byte-identical to having streamed every value. Idempotent until
// the next push.
func (c *Chain) FoldDistinct(vec *bins.Vector) {
	if !c.Deferred() || c.distinct {
		return
	}
	c.distinct = true
	for i := range c.slots {
		h, ok := c.slots[i].block.(*HLL)
		if !ok {
			continue
		}
		var batch [256]int64
		n := 0
		vec.Occupied(func(i int, _ int64) {
			batch[n] = vec.Value(i)
			if n++; n == len(batch) {
				h.observe(batch[:])
				n = 0
			}
		})
		h.observe(batch[:n])
	}
}

// Fold completes every deferred block from vec, which must hold exactly the
// values booked on this chain and on every chain merged into it, and returns
// the chain to streaming mode, so a second call does nothing. The SpaceSaving
// block becomes the exact top-k of the region — Err 0, and the same bytes
// however the stream was sharded — merged with what it counted from observed
// values.
func (c *Chain) Fold(vec *bins.Vector) {
	if !c.Deferred() {
		return
	}
	c.FoldDistinct(vec)
	c.deferred = false
	for i := range c.slots {
		observed, ok := c.slots[i].block.(*SpaceSaving)
		if !ok {
			continue
		}
		exact := pooledSpaceSaving(observed.k)
		// floor is the full summary's minimum count: no bin below it can
		// enter, which spares a wide region the call per bin.
		var floor int64
		vec.Occupied(func(i int, count int64) {
			if count >= floor {
				floor = exact.offerExact(vec.Value(i), count)
			}
		})
		_ = exact.Merge(observed) // same kind, same capacity: cannot fail
		c.slots[i].block = exact
		releaseBlock(observed)
	}
}
