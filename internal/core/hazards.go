package core

import (
	"math/bits"

	"streamhist/internal/bins"
)

// hazards is the RAW-hazard table: per memory line, the cycle at which the
// line's most recent write commits, and 0 for a line not written — a zero
// never exceeds a read's issue cycle, so such a line never stalls. It takes
// the bin region's host form. Dense, it is a flat row indexed by line, 8 B a
// line (1 B a bin at 8 bins per line). Sparse, it is an open-addressed table
// of the lines written, 16 B a slot and at most three quarters full, so that
// it too grows with the lines a scan touches and not with Δ. A slot holds
// its key beside its entry, so a probe touches one host cache line.
type hazards struct {
	flat []float64

	slots []hazardSlot // sparse; a power of two long
	used  int
	shift uint8 // 64 − log2(len(slots))
}

type hazardSlot struct {
	key    uint32 // line+1, 0 for a free slot
	commit float64
}

// minHazardSlots is the smallest sparse table, in slots.
const minHazardSlots = 1 << 10

// at returns line's entry, adding one at 0 to a sparse table that lacks it.
func (h *hazards) at(line int64) *float64 {
	if h.slots == nil {
		return &h.flat[line]
	}
	return h.sparseAt(uint32(line) + 1)
}

func (h *hazards) sparseAt(key uint32) *float64 {
	mask := len(h.slots) - 1
	for j := int(uint64(key) * 0x9E3779B97F4A7C15 >> h.shift); ; j = (j + 1) & mask {
		switch s := &h.slots[j]; s.key {
		case key:
			return &s.commit
		case 0:
			if 4*h.used >= 3*len(h.slots) {
				h.resize(2 * len(h.slots))
				return h.sparseAt(key)
			}
			*s = hazardSlot{key: key}
			h.used++
			return &s.commit
		}
	}
}

// resize moves the sparse entries into a table of size slots.
func (h *hazards) resize(size int) {
	old := h.slots
	h.slots, h.used = make([]hazardSlot, size), 0
	h.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			*h.sparseAt(s.key) = s.commit
		}
	}
}

// reset empties h for numLines lines in form, keeping that form's storage
// and dropping the other's. A flat row must already be zero over its
// capacity: binner scratch zeroes the entries it wrote as it empties its
// bin region (see binnerScratch).
func (h *hazards) reset(numLines int64, form bins.Form) {
	if form == bins.Sparse {
		h.flat = nil
		if h.slots == nil {
			h.resize(minHazardSlots)
		}
		clear(h.slots)
		h.used = 0
		return
	}
	h.slots, h.used = nil, 0
	if int64(cap(h.flat)) >= numLines {
		h.flat = h.flat[:numLines]
	} else {
		h.flat = flatHazards(numLines)
	}
}

// densify moves a sparse table into a flat row of numLines lines.
func (h *hazards) densify(numLines int64) {
	flat := flatHazards(numLines)
	for _, s := range h.slots {
		if s.key != 0 {
			flat[s.key-1] = s.commit
		}
	}
	*h = hazards{flat: flat}
}

// flatHazards returns a zeroed row of n lines in whole 64-byte host cache
// lines, so that two lanes' rows never share one (see bins.Vector).
func flatHazards(n int64) []float64 { return make([]float64, n, (n+7)/8*8) }

func (h *hazards) bytes() int { return 8*cap(h.flat) + 16*len(h.slots) }
