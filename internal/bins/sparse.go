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
// folds the log in when the log outgrows logLimit, so a write costs
// amortised O(1) and the log stays within twice the bins held, and before
// anything reads the counts. It sorts the log alone — a radix sort (bins are
// bounded integers), skipped when the log already ascends, as another
// region's combined entries do when Merge appends them — then merges it with
// the combined part in one linear pass, so a write is sorted at most once
// and a merge of two combined regions sorts nothing. The sort and the merge
// share the region's two buffers, ents and spare.
type sparse struct {
	ents     []entry
	spare    []entry // the second buffer of the sort and the merge
	combined int
	sorted   int // entries radix-sorted since the region was made; tests read it
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

// merge leaves the combined part and the log, in bin order, in ents, with
// every entry kept: a bin's entries stay one run apiece for the caller to
// sum. The log is sorted first, over the bytes a bin of a region of n bins
// can have set, between ents[combined:] and the same span of spare, least
// significant byte first; a log that already ascends is left where it is.
// Then the two runs merge forward into spare, which becomes ents. An output
// slot never passes the log's unread entries, so the log may lie in spare.
func (s *sparse) merge(n int) {
	if cap(s.spare) < len(s.ents) {
		s.spare = make([]entry, 0, cap(s.ents))
	}
	run, log, tmp := s.ents[:s.combined], s.ents[s.combined:], s.spare[s.combined:len(s.ents)]
	if !ascending(log) {
		s.sorted += len(log)
		for shift := 0; shift < bits.Len(uint(n-1)); shift += 8 {
			var at [256]int
			for _, e := range log {
				at[byte(e.bin>>shift)]++
			}
			sum := 0
			for d, c := range at {
				at[d], sum = sum, sum+c
			}
			for _, e := range log {
				d := byte(e.bin >> shift)
				tmp[at[d]] = e
				at[d]++
			}
			log, tmp = tmp, log
		}
	}
	out := s.spare[:len(s.ents)]
	i, j := 0, 0
	for i < len(run) && j < len(log) {
		// Which run the next entry comes from is a coin toss on random
		// bins, so this body compiles to conditional moves, not a branch.
		e, y, t := run[i], log[j], 0
		if y.bin < e.bin {
			e, t = y, 1
		}
		out[i+j] = e
		i, j = i+1-t, j+t
	}
	k := i + j + copy(out[i+j:], run[i:])
	copy(out[k:], log[j:])
	s.ents, s.spare = out, s.ents[:0]
}

// ascending reports whether log's bins never fall.
func ascending(log []entry) bool {
	for k := 1; k < len(log); k++ {
		if log[k].bin < log[k-1].bin {
			return false
		}
	}
	return true
}
