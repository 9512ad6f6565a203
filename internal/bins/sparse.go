package bins

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// MaxSparseBins bounds the bins of a sparse vector, whose bins are uint32
// keys.
const MaxSparseBins = math.MaxUint32

// sparse is the host form of a region few of whose bins are written: a log
// of the writes, so that its memory follows the bins a scan touches rather
// than the range it reserves, and a write is an append rather than a lookup.
// ents[:combined] ascend by bin, one entry a bin, each holding the bin's
// cell; ents[combined:] is the log of writes since, in write order, a bin as
// often as it was written. A write logs its count when the count is above
// zero and below wideMark. Any other count is added to the bin's value in the
// wide map, and the log takes a mark (wideMark) for it, so a bin holds a key
// there exactly when its cell or a logged entry is a mark. Vector.combine
// folds the log in — a radix sort (bins are bounded integers), then a pass
// that sums each bin's run — when the log outgrows logLimit, so a write
// costs amortised O(1) and the log stays within twice the bins held, and
// before anything reads the counts.
type sparse struct {
	ents     []entry
	spare    []entry // the radix sort's second buffer
	combined int
}

type entry struct{ bin, count uint32 }

// minLog is the longest log combine leaves alone however few bins the
// combined part holds: reads combine it anyway, and a sort of a short log
// costs more per entry than the entries it saves.
const minLog = 32 << 10

func (s *sparse) bytes() int { return 8 * (cap(s.ents) + cap(s.spare)) }

// reset empties s, keeping its storage.
func (s *sparse) reset() { s.ents, s.combined = s.ents[:0], 0 }

// logLimit reports whether the log is due to be combined.
func (s *sparse) logLimit() bool { return len(s.ents)-s.combined > max(2*s.combined, minLog) }

// search returns the position of bin's entry in the combined part, and
// whether it has one: when not, the position it would take.
func (s *sparse) search(bin uint32) (int, bool) {
	return slices.BinarySearchFunc(s.ents[:s.combined], bin, func(e entry, bin uint32) int { return cmp.Compare(e.bin, bin) })
}

// order sorts the entries by bin of a region of n bins: a radix sort, least
// significant byte first, over the bytes a bin below n can have set. The
// sort is stable.
func (s *sparse) order(n int) {
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
}
