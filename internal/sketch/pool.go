package sketch

import "sync"

// Block-state pools. A scan's parallel side path builds one chain per lane
// and throws all but the merge survivor away; without reuse that is a
// register file, a counter arena with its table, and a window buffer
// allocated per lane per scan, plus whatever the blocks grew during the
// stream. Chain.Release parks the retired blocks here once the
// lane goroutine is joined (and only when the blocks provably did not escape
// into a catalog entry or scan result), and NewChain prefers pooled state
// with matching geometry.
//
// Reset discipline: a reused block must be observationally identical to a
// fresh one — same encoding bytes for the same stream, same degraded flag,
// same sparse/dense encoding form. The pooled-reuse property tests compare
// a recycled lane against a fresh lane bytewise.
var (
	hllPool sync.Pool
	ssPool  sync.Pool
	winPool sync.Pool
)

// pooledHLL returns a reset pooled sketch when one with the right precision
// is available, else a fresh one.
func pooledHLL(precision int) *HLL {
	if v := hllPool.Get(); v != nil {
		h := v.(*HLL)
		if int(h.p) == clampPrecision(precision) {
			h.reset()
			return h
		}
	}
	return NewHLL(precision)
}

func pooledSpaceSaving(k int) *SpaceSaving {
	if v := ssPool.Get(); v != nil {
		s := v.(*SpaceSaving)
		if s.k == k || (s.k == 1 && k < 1) {
			s.reset()
			return s
		}
	}
	return NewSpaceSaving(k)
}

func pooledWindow(w int) *Window {
	if v := winPool.Get(); v != nil {
		win := v.(*Window)
		if win.w == w || (win.w == 0 && w < 0) {
			win.reset()
			return win
		}
	}
	return NewWindow(w)
}

// releaseBlock parks one block's state for reuse. Geometry mismatches are
// resolved at Get time, so every block kind is accepted here.
func releaseBlock(b StatBlock) {
	switch blk := b.(type) {
	case *HLL:
		hllPool.Put(blk)
	case *SpaceSaving:
		ssPool.Put(blk)
	case *Window:
		winPool.Put(blk)
	}
}

// reset restores the sketch to its freshly-constructed state, keeping the
// register file.
func (h *HLL) reset() {
	h.blockBase = blockBase{}
	clear(h.regs)
	h.touched = 0
	h.dense = false
}

func (s *SpaceSaving) reset() {
	s.blockBase = blockBase{}
	s.entries = s.entries[:0]
	clear(s.tab)
	s.heap = s.heap[:0]
}

func (w *Window) reset() {
	w.blockBase = blockBase{}
	w.buf = w.buf[:0]
}
