package bins

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// MaxSparseBins bounds the bins of a sparse vector, whose bins are uint32
// keys (one short of 2^32, so that a key plus one still fits).
const MaxSparseBins = math.MaxUint32

// sparse is the host form of a region few of whose bins are written: one
// entry per bin written since the region was last emptied, found through an
// open-addressed index, so that its memory follows the bins a scan touches
// rather than the range it reserves. Entries are appended in write order and
// sorted by bin on the first ordered walk after a write, by a radix sort
// (bins are bounded integers). Sorting moves entries, so the index is
// rebuilt, but only when the next write needs it; until then a lookup
// bisects the sorted entries.
type sparse struct {
	ents    []entry
	spare   []entry  // the radix sort's second buffer
	index   []uint32 // k+1 for ents[k], at its bin's slot or probed past it; 0 is free
	shift   uint8    // 64 − log2(len(index))
	ordered bool     // ents ascend by bin
	stale   bool     // ents moved since index was built
}

type entry struct{ bin, count uint32 }

// minIndex is the smallest index, in slots.
const minIndex = 1 << 10

func (s *sparse) bytes() int { return 8*(cap(s.ents)+cap(s.spare)) + 4*len(s.index) }

// reset empties s, keeping its storage.
func (s *sparse) reset() {
	s.ents = s.ents[:0]
	s.ordered = true
	s.rebuild(max(len(s.index), minIndex))
}

// slot is the home slot of bin: Fibonacci hashing, whose top bits spread a
// run of consecutive bins over the whole index.
func (s *sparse) slot(bin uint32) int { return int(uint64(bin) * 0x9E3779B97F4A7C15 >> s.shift) }

// rebuild indexes the entries afresh in an index of size slots.
func (s *sparse) rebuild(size int) {
	if size != len(s.index) {
		s.index = make([]uint32, size)
		s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	} else {
		clear(s.index)
	}
	mask := size - 1
	for k, e := range s.ents {
		j := s.slot(e.bin)
		for s.index[j] != 0 {
			j = (j + 1) & mask
		}
		s.index[j] = uint32(k + 1)
	}
	s.stale = false
}

// cell returns bin's count cell, adding an empty entry for a bin not yet
// written. The index is kept at most three quarters full.
func (s *sparse) cell(bin uint32) *uint32 {
	if s.stale {
		s.rebuild(len(s.index))
	}
	mask := len(s.index) - 1
	for j := s.slot(bin); ; j = (j + 1) & mask {
		k := s.index[j]
		if k == 0 {
			if 4*len(s.ents) >= 3*len(s.index) {
				s.rebuild(2 * len(s.index))
				return s.cell(bin)
			}
			s.ordered = s.ordered && (len(s.ents) == 0 || s.ents[len(s.ents)-1].bin < bin)
			s.ents = append(s.ents, entry{bin: bin})
			s.index[j] = uint32(len(s.ents))
			return &s.ents[len(s.ents)-1].count
		}
		if e := &s.ents[k-1]; e.bin == bin {
			return &e.count
		}
	}
}

// find returns the position of bin's entry, or -1 when bin has none.
func (s *sparse) find(bin uint32) int {
	if s.stale {
		k, ok := slices.BinarySearchFunc(s.ents, bin, func(e entry, bin uint32) int { return cmp.Compare(e.bin, bin) })
		if !ok {
			return -1
		}
		return k
	}
	mask := len(s.index) - 1
	for j := s.slot(bin); ; j = (j + 1) & mask {
		k := s.index[j]
		if k == 0 {
			return -1
		}
		if s.ents[k-1].bin == bin {
			return int(k - 1)
		}
	}
}

// order sorts the entries by bin of a region of n bins: a radix sort, least
// significant byte first, over the bytes a bin below n can have set.
func (s *sparse) order(n int) {
	if s.ordered {
		return
	}
	if cap(s.spare) < len(s.ents) {
		s.spare = make([]entry, 0, cap(s.ents))
	}
	src, dst := s.ents, s.spare[:len(s.ents)]
	for shift := 0; shift < bits.Len(uint(n-1)); shift += 8 {
		var at [256]int
		for _, e := range src {
			at[byte(e.bin>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, e := range src {
			d := byte(e.bin >> shift)
			dst[at[d]] = e
			at[d]++
		}
		src, dst = dst, src
	}
	s.ents, s.spare = src, dst[:0]
	s.ordered, s.stale = true, true
}
