// Package bins implements the "in-memory sorted representation" at the heart
// of the paper (§4, "Histograms in linear time"): a row of occurrence counts
// indexed by value, filled by a bin-sort pass over the column. Because the
// row is indexed by value, reading it front to back yields the column's
// values in sorted order together with their exact frequencies — which is
// what the statistic blocks consume.
//
// The modelled region holds one bin per value of the column's range (its
// cardinality upper bound), whatever the number of rows, matching the paper's
// linear-space argument. The host keeps a region in one of two forms: dense,
// an array over the whole range, or sparse, a table of the bins written, so
// that a wide range a scan touches little of costs host memory for the
// values it holds rather than for the range it reserves. Every read is the
// same in both forms.
package bins

import (
	"fmt"
	"math"
	"math/bits"
)

// Vector is a bin region over the value range [Min, Min+NumBins*Divisor).
// Bin i counts occurrences of values v with (v-Min)/Divisor == i.
//
// Divisor > 1 coarsens the mapping, assigning several consecutive values to
// one bin — the paper's example is second-granularity timestamps binned per
// day (§5.1.1).
//
// In the dense form, beside the counts the vector keeps an occupancy index,
// one bit per bin, set whenever a bin is written. Every walk over the bins —
// NonZero, Merge, Reset, the Scanner's read-out — visits the set bits only
// and so costs O(occupied bins + Δ/64), not O(Δ). The invariant is
// one-sided: every non-zero bin has its bit set. A set bit over a zero bin is
// harmless, because the walk re-reads the count. The sparse form (see sparse)
// keeps one entry per bin written instead, and a walk costs O(entries). Total
// and Cardinality are tallies kept by the writes, so neither walks anything.
//
// The host stores a count in 4 bytes, half the modelled 8-byte bin. A count
// that does not fit — negative, or wideMark and above — is stored as
// wideMark, and its full value lives in the wide map, which is nil while no
// such bin exists. The methods take and return int64 counts either way.
type Vector struct {
	Min     int64
	Divisor int64

	n        int      // bins
	counts   []uint32 // dense form
	occ      []uint64 // dense form
	sp       *sparse  // the sparse form when non-nil; counts and occ are nil
	wide     map[int]int64
	total    int64
	nonEmpty int // bins with a count > 0

	// Every write to a bin writes total and nonEmpty too. The pad makes a
	// Vector two whole host cache lines, so that two lanes' vectors never
	// share one (see alloc).
	_ [24]byte
}

// Form is a vector's host storage form.
type Form uint8

const (
	// Dense stores every bin of the range.
	Dense Form = iota
	// Sparse stores the bins written; it holds at most MaxSparseBins bins.
	Sparse
)

// wideMark in a count cell sends the bin's count to the wide map.
const wideMark = math.MaxUint32

// hostLine is the host's cache-line size in bytes.
const hostLine = 64

// occWords is the occupancy index length for n bins.
func occWords(n int) int { return (n + 63) >> 6 }

// alloc gives v zeroed dense arrays for n bins. Each array is a whole number
// of host cache lines, and Go's allocator gives such a request a size class
// of whole lines, so no other object shares its lines. Lanes write their
// regions on every push, side by side: two lanes whose small regions shared
// lines ran 4–5× slower, and the free list would keep such a pair for good.
func (v *Vector) alloc(n int) {
	v.counts = make([]uint32, n, roundUp(n, hostLine/4))
	v.occ = make([]uint64, occWords(n), roundUp(occWords(n), hostLine/8))
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// DenseBytes returns the host bytes of a dense region of n bins.
func DenseBytes(n int) int { return 4*roundUp(n, hostLine/4) + 8*roundUp(occWords(n), hostLine/8) }

// Bytes returns the host bytes of v's count storage in its present form.
func (v *Vector) Bytes() int {
	if v.sp != nil {
		return v.sp.bytes()
	}
	return 4*cap(v.counts) + 8*cap(v.occ)
}

// narrowPath reports whether v can take added more counts, spread over any
// of its bins, on the uint32 cells alone. With no wide bin every count is in
// [0, wideMark) and none exceeds total, so while added ≥ 0 and total+added
// stays below the mark no bin can reach it. Writers decide this once per
// call, never once per bin.
func (v *Vector) narrowPath(added int64) bool {
	return v.wide == nil && added >= 0 && v.total < wideMark-added
}

// widen returns what bin i's cell, holding cell now, must hold for count c —
// c itself when it fits, else wideMark with c in the wide map — and keeps
// the map in step.
func (v *Vector) widen(i int, cell uint32, c int64) uint32 {
	if uint64(c) < wideMark {
		if cell == wideMark {
			delete(v.wide, i)
			if len(v.wide) == 0 {
				v.wide = nil
			}
		}
		return uint32(c)
	}
	if v.wide == nil {
		v.wide = make(map[int]int64)
	}
	v.wide[i] = c
	return wideMark
}

// NewVector creates a zeroed dense vector covering [min, max] inclusive with
// the given divisor (use 1 for exact per-value bins).
func NewVector(min, max, divisor int64) *Vector {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	if max < min {
		panic(fmt.Sprintf("bins: max %d < min %d", max, min))
	}
	v := new(Vector)
	v.Recycle(min, divisor, int((max-min)/divisor+1), Dense, nil)
	return v
}

// FromCounts builds a dense vector from a per-bin count slice (bin i at
// value min+i*divisor). The counts are copied; the slice stays the caller's.
func FromCounts(min, divisor int64, counts []int64) *Vector {
	v := new(Vector)
	v.Recycle(min, divisor, len(counts), Dense, nil)
	for i, c := range counts {
		if c != 0 {
			v.AddAt(i, c)
		}
	}
	return v
}

// NumBins returns the number of bins (the Δ of Table 2).
func (v *Vector) NumBins() int { return v.n }

// Form returns v's host storage form.
func (v *Vector) Form() Form {
	if v.sp != nil {
		return Sparse
	}
	return Dense
}

// Capacity returns the largest number of bins Recycle can aim v at in its
// present form without allocating — any number for a sparse vector, whose
// tables grow with the bins written and not with the range.
func (v *Vector) Capacity() int {
	if v.sp != nil {
		return math.MaxInt
	}
	return cap(v.counts)
}

// Total returns the total number of values added.
func (v *Vector) Total() int64 { return v.total }

// Index maps a value to its bin index, or -1 when out of range. The offset
// from Min is taken in uint64, where it cannot overflow.
func (v *Vector) Index(value int64) int {
	if value < v.Min {
		return -1
	}
	i := (uint64(value) - uint64(v.Min)) / uint64(v.Divisor)
	if i >= uint64(v.n) {
		return -1
	}
	return int(i)
}

// Value returns the lowest value mapped to bin i.
func (v *Vector) Value(i int) int64 { return v.Min + int64(i)*v.Divisor }

// Add records one occurrence of value. It panics when the value is outside
// the configured range — the preprocessor is responsible for range setup.
func (v *Vector) Add(value int64) { v.AddCount(value, 1) }

// AddCount records count occurrences of value.
func (v *Vector) AddCount(value, count int64) {
	i := v.Index(value)
	if i < 0 {
		panic(fmt.Sprintf("bins: value %d outside range [%d, %d]", value, v.Min, v.Min+int64(v.n)*v.Divisor-1))
	}
	v.AddAt(i, count)
}

// AddAt adds count to bin i, which must be in [0, NumBins). It is the
// binner's write per row: the form is one pointer test, the dense narrow
// bump inlines here, and the rest stays out of line.
func (v *Vector) AddAt(i int, count int64) {
	switch {
	case v.sp != nil:
		v.bump(i, v.sp.cell(v.sparseBin(i)), count)
	case v.narrowPath(count):
		v.bumpNarrow(i, count)
	default:
		v.occ[i>>6] |= 1 << (i & 63)
		v.bump(i, &v.counts[i], count)
	}
}

// bumpNarrow adds count to dense bin i when narrowPath(count) holds, and
// keeps the occupancy index and the two tallies in step; bump does the same
// for any count, on the cell of a bin of either form. Apart from Merge's
// narrow loop and Recycle, which do the same in bulk, they are the only
// writers of counts.
func (v *Vector) bumpNarrow(i int, count int64) {
	old := int64(v.counts[i])
	v.counts[i] = uint32(old + count)
	v.occ[i>>6] |= 1 << (i & 63)
	v.total += count
	v.nonEmpty += positive(old+count) - positive(old)
}

func (v *Vector) bump(i int, cell *uint32, count int64) {
	old := int64(*cell)
	if *cell == wideMark {
		old = v.wide[i]
	}
	*cell = v.widen(i, *cell, old+count)
	v.total += count
	v.nonEmpty += positive(old+count) - positive(old)
}

// positive is 1 for c > 0 and 0 otherwise: c ≤ 0 exactly when c or c-1 has
// the sign bit set. It is spelled in arithmetic on purpose. The counts it is
// asked about are cache misses in Merge's loop, and there both a branch and a
// SETcc on the loaded value ran that loop four times slower than this form.
func positive(c int64) int { return 1 - int(uint64(c|(c-1))>>63) }

// sparseBin checks bin i against the range and returns its sparse key.
func (v *Vector) sparseBin(i int) uint32 {
	if uint(i) >= uint(v.n) {
		panic(fmt.Sprintf("bins: bin %d outside [0, %d)", i, v.n))
	}
	return uint32(i)
}

// Count returns the count in bin i.
func (v *Vector) Count(i int) int64 {
	var c uint32
	if v.sp == nil {
		c = v.counts[i]
	} else if k := v.sp.find(v.sparseBin(i)); k >= 0 {
		c = v.sp.ents[k].count
	}
	if c != wideMark {
		return int64(c)
	}
	return v.wide[i]
}

// CountValue returns the count of the bin containing value (0 when out of
// range).
func (v *Vector) CountValue(value int64) int64 {
	i := v.Index(value)
	if i < 0 {
		return 0
	}
	return v.Count(i)
}

// emit calls fn for bin i with cell c, unless the bin is empty.
func (v *Vector) emit(fn func(i int, count int64), i int, c uint32) {
	switch c {
	case 0:
	case wideMark:
		fn(i, v.wide[i])
	default:
		fn(i, int64(c))
	}
}

// Occupied calls fn with the index and count of every non-empty bin, in
// ascending index order; fn must not add to v. It is the walk for callers
// outside the package; Merge and Recycle run the same two-line bit walk with
// their one-line bodies in place. A sparse vector written since its last
// walk sorts its entries first, so that walk must not run beside any other
// use of v.
//
// Over a wide dense region every count is a cache miss, and what bounds a
// walk is how many of those misses are in flight at once. A loop of a few
// instructions around the access keeps the load queue full; a loop that
// calls out per bin keeps two or three. So the counts are gathered a batch
// at a time in a tight loop of their own, and fn runs over the batch
// afterwards — worth 3× on a 10 M-bin region with 200 k values. A wide bin's
// mark is resolved in that second loop, not in the gather.
func (v *Vector) Occupied(fn func(i int, count int64)) {
	if v.sp != nil {
		v.sp.order(v.n)
		v.each(fn)
		return
	}
	const batch = 256
	var idx [batch]int
	var cnt [batch]uint32
	n := 0
	for w, word := range v.occ {
		for ; word != 0; word &= word - 1 {
			idx[n] = w<<6 | bits.TrailingZeros64(word)
			n++
		}
		if n <= batch-64 && w != len(v.occ)-1 {
			continue
		}
		for k, i := range idx[:n] {
			cnt[k] = v.counts[i]
		}
		for k, i := range idx[:n] {
			v.emit(fn, i, cnt[k])
		}
		n = 0
	}
}

// each calls fn for every non-empty bin, in ascending order when v is dense
// and in storage order when it is sparse; fn must not add to v.
func (v *Vector) each(fn func(i int, count int64)) {
	if v.sp == nil {
		v.Occupied(fn)
		return
	}
	for _, e := range v.sp.ents {
		v.emit(fn, int(e.bin), e.count)
	}
}

// Cardinality returns the number of non-empty bins.
func (v *Vector) Cardinality() int { return v.nonEmpty }

// Recycle empties v and re-aims it at n bins starting at min with the given
// divisor, in the given form, keeping that form's storage when it is large
// enough — the pooled form of NewVector; storage of a form v leaves is
// dropped. Emptying clears the bins written only, so a vector over a wide
// range recycles in O(written + Δ/64) dense and O(written) sparse, not in a
// clear over the whole region. cleared, when non-nil, is called with the
// index (old geometry) of every bin written since v was last emptied —
// ascending in the dense form, in storage order in the sparse one — so that
// state kept per bin beside the vector can be reset on the same walk. The
// zero Vector is valid input.
func (v *Vector) Recycle(min, divisor int64, n int, form Form, cleared func(i int)) {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	if n < 0 || form == Sparse && uint64(n) > MaxSparseBins {
		panic(fmt.Sprintf("bins: %d bins in form %d", n, form))
	}
	if v.sp != nil {
		if cleared != nil {
			for _, e := range v.sp.ents {
				cleared(int(e.bin))
			}
		}
	} else {
		for w, word := range v.occ {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				v.counts[i] = 0
				if cleared != nil {
					cleared(i)
				}
			}
		}
		clear(v.occ)
	}
	v.wide = nil
	v.Min, v.Divisor, v.n, v.total, v.nonEmpty = min, divisor, n, 0, 0
	if form == Sparse {
		v.counts, v.occ = nil, nil
		if v.sp == nil {
			v.sp = new(sparse)
		}
		v.sp.reset()
		return
	}
	v.sp = nil
	// Both arrays are now zero over their whole capacity (every earlier
	// shrink cleared first), so growing back into it needs no second pass.
	if n <= cap(v.counts) && occWords(n) <= cap(v.occ) {
		v.counts, v.occ = v.counts[:n], v.occ[:occWords(n)]
	} else {
		v.alloc(n)
	}
}

// Densify moves a sparse vector into the dense form with every count and
// tally unchanged; a no-op on a dense vector.
func (v *Vector) Densify() {
	sp := v.sp
	if sp == nil {
		return
	}
	v.sp = nil
	v.alloc(v.n)
	for _, e := range sp.ents {
		v.counts[e.bin] = e.count
		v.occ[e.bin>>6] |= 1 << (e.bin & 63)
	}
}

// Merge adds other's counts into v, either form into either form. Both
// vectors must have identical range configuration. This implements the §7
// (Future Work) scale-up path where replicated Binner modules produce
// partial counts in separate memories that are aggregated before histogram
// creation.
func (v *Vector) Merge(other *Vector) error {
	if v.Min != other.Min || v.Divisor != other.Divisor || v.n != other.n {
		return fmt.Errorf("bins: cannot merge vectors with different geometry (min %d/%d divisor %d/%d bins %d/%d)",
			v.Min, other.Min, v.Divisor, other.Divisor, v.n, other.n)
	}
	if v.sp != nil || other.sp != nil || other.wide != nil || !v.narrowPath(other.total) {
		other.each(v.AddAt)
		return nil
	}
	filled := 0
	for w, word := range other.occ {
		v.occ[w] |= word
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			old := v.counts[i]
			c := old + other.counts[i]
			v.counts[i] = c
			filled += positive(int64(c)) - positive(int64(old))
		}
	}
	v.nonEmpty += filled
	v.total += other.total
	return nil
}

// Build bin-sorts values into a fresh vector sized to their range; the
// software-reference equivalent of the Binner module.
func Build(values []int64, divisor int64) *Vector {
	if len(values) == 0 {
		return NewVector(0, 0, max64(divisor, 1))
	}
	lo, hi := values[0], values[0]
	for _, x := range values {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	v := NewVector(lo, hi, divisor)
	for _, x := range values {
		v.Add(x)
	}
	return v
}

// Bin couples a representative value with its count; the unit streamed from
// the Scanner into the statistic blocks.
type Bin struct {
	Value int64
	Count int64
}

// NonZero returns the non-empty bins in ascending value order.
func (v *Vector) NonZero() []Bin {
	out := make([]Bin, 0, 64)
	v.Occupied(func(i int, c int64) {
		if c > 0 {
			out = append(out, Bin{Value: v.Value(i), Count: c})
		}
	})
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
