// Package bins implements the "in-memory sorted representation" at the heart
// of the paper (§4, "Histograms in linear time"): a dense array of
// occurrence counts indexed by value, filled by a bin-sort pass over the
// column. Because the array is indexed by value, reading it front to back
// yields the column's values in sorted order together with their exact
// frequencies — which is what the statistic blocks consume.
//
// The memory the vector occupies depends on the column's value range (its
// cardinality upper bound), not on the number of rows, matching the paper's
// linear-space argument.
package bins

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
)

// Vector is a dense bin array over the value range [Min, Min+len*Divisor).
// Bin i counts occurrences of values v with (v-Min)/Divisor == i.
//
// Divisor > 1 coarsens the mapping, assigning several consecutive values to
// one bin — the paper's example is second-granularity timestamps binned per
// day (§5.1.1).
//
// Beside the counts the vector keeps an occupancy index, one bit per bin,
// set whenever a bin is written. Every walk over the bins — NonZero, Merge,
// Reset, the Scanner's read-out — visits the set bits only and so costs
// O(occupied bins + Δ/64), not O(Δ): a sparse column over a wide value range
// pays for the values it holds, not for the range it reserves. The invariant
// is one-sided: every non-zero bin has its bit set. A set bit over a zero bin
// is harmless, because the walk re-reads the count. Total and Cardinality
// are tallies kept by the same writes, so neither walks anything.
//
// The host stores a count in 4 bytes, half the modelled 8-byte bin. A count
// that does not fit — negative, or wideMark and above — is stored as
// wideMark, and its full value lives in the wide map, which is nil while no
// such bin exists. The methods take and return int64 counts either way.
type Vector struct {
	Min     int64
	Divisor int64

	counts   []uint32
	wide     map[int]int64
	occ      []uint64
	total    int64
	nonEmpty int // bins with a count > 0

	// Every write to a bin writes total and nonEmpty too. The pad makes a
	// Vector two whole host cache lines, so that two lanes' vectors never
	// share one (see alloc).
	_ [40]byte
}

// wideMark in counts sends the bin's count to the wide map.
const wideMark = math.MaxUint32

// hostLine is the host's cache-line size in bytes.
const hostLine = 64

// occWords is the occupancy index length for n bins.
func occWords(n int) int { return (n + 63) >> 6 }

// alloc gives v zeroed arrays for n bins. Each array is a whole number of
// host cache lines, and Go's allocator gives such a request a size class of
// whole lines, so no other object shares its lines. Lanes write their
// regions on every push, side by side: two lanes whose small regions shared
// lines ran 4–5× slower, and the free list would keep such a pair for good.
func (v *Vector) alloc(n int) {
	v.counts = make([]uint32, n, roundUp(n, hostLine/4))
	v.occ = make([]uint64, occWords(n), roundUp(occWords(n), hostLine/8))
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// narrowPath reports whether v can take added more counts, spread over any
// of its bins, on the uint32 counts alone. With no wide bin every count is in
// [0, wideMark) and none exceeds total, so while added ≥ 0 and total+added
// stays below the mark no bin can reach it. Writers decide this once per
// call, never once per bin.
func (v *Vector) narrowPath(added int64) bool {
	return v.wide == nil && added >= 0 && v.total < wideMark-added
}

// set stores count c in bin i, in counts when it fits and in the wide map
// when it does not.
func (v *Vector) set(i int, c int64) {
	if uint64(c) < wideMark {
		if v.counts[i] == wideMark {
			delete(v.wide, i)
			if len(v.wide) == 0 {
				v.wide = nil
			}
		}
		v.counts[i] = uint32(c)
		return
	}
	if v.wide == nil {
		v.wide = make(map[int]int64)
	}
	v.counts[i] = wideMark
	v.wide[i] = c
}

// NewVector creates a zeroed vector covering [min, max] inclusive with the
// given divisor (use 1 for exact per-value bins).
func NewVector(min, max, divisor int64) *Vector {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	if max < min {
		panic(fmt.Sprintf("bins: max %d < min %d", max, min))
	}
	v := &Vector{Min: min, Divisor: divisor}
	v.alloc(int((max-min)/divisor + 1))
	return v
}

// FromCounts builds a vector from a per-bin count slice (bin i at value
// min+i*divisor). The counts are copied; the slice stays the caller's.
func FromCounts(min, divisor int64, counts []int64) *Vector {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	v := &Vector{Min: min, Divisor: divisor}
	v.alloc(len(counts))
	for i, c := range counts {
		if c != 0 {
			v.bumpWide(i, c)
		}
	}
	return v
}

// NumBins returns the number of bins (the Δ of Table 2).
func (v *Vector) NumBins() int { return len(v.counts) }

// Capacity returns the largest number of bins Recycle can aim v at without
// allocating.
func (v *Vector) Capacity() int { return cap(v.counts) }

// Total returns the total number of values added.
func (v *Vector) Total() int64 { return v.total }

// Index maps a value to its bin index, or -1 when out of range.
func (v *Vector) Index(value int64) int {
	if value < v.Min {
		return -1
	}
	i := (value - v.Min) / v.Divisor
	if i >= int64(len(v.counts)) {
		return -1
	}
	return int(i)
}

// Value returns the lowest value mapped to bin i.
func (v *Vector) Value(i int) int64 { return v.Min + int64(i)*v.Divisor }

// Add records one occurrence of value. It panics when the value is outside
// the configured range — the preprocessor is responsible for range setup.
func (v *Vector) Add(value int64) { v.AddCount(value, 1) }

// AddCount records count occurrences of value. It is the binner's write per
// row: the narrow bump inlines here and the wide one stays out of line.
func (v *Vector) AddCount(value, count int64) {
	i := v.Index(value)
	if i < 0 {
		panic(fmt.Sprintf("bins: value %d outside range [%d, %d]", value, v.Min, v.Min+int64(len(v.counts))*v.Divisor-1))
	}
	if v.narrowPath(count) {
		v.bumpNarrow(i, count)
	} else {
		v.bumpWide(i, count)
	}
}

// bumpNarrow adds count to bin i when narrowPath(count) holds, and keeps the
// occupancy index and the two tallies in step; bumpWide does the same for
// any count. Apart from Merge's narrow loop and Recycle, which do the same
// in bulk, they are the only writers of counts.
func (v *Vector) bumpNarrow(i int, count int64) {
	old := int64(v.counts[i])
	v.counts[i] = uint32(old + count)
	v.occ[i>>6] |= 1 << (i & 63)
	v.total += count
	v.nonEmpty += positive(old+count) - positive(old)
}

func (v *Vector) bumpWide(i int, count int64) {
	old := v.Count(i)
	v.set(i, old+count)
	v.occ[i>>6] |= 1 << (i & 63)
	v.total += count
	v.nonEmpty += positive(old+count) - positive(old)
}

// positive is 1 for c > 0 and 0 otherwise: c ≤ 0 exactly when c or c-1 has
// the sign bit set. It is spelled in arithmetic on purpose. The counts it is
// asked about are cache misses in Merge's loop, and there both a branch and a
// SETcc on the loaded value ran that loop four times slower than this form.
func positive(c int64) int { return 1 - int(uint64(c|(c-1))>>63) }

// Count returns the count in bin i.
func (v *Vector) Count(i int) int64 {
	if c := v.counts[i]; c != wideMark {
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

// Counts returns a copy of the per-bin counts, bin i at index i.
func (v *Vector) Counts() []int64 {
	out := make([]int64, len(v.counts))
	for i, c := range v.counts {
		out[i] = int64(c)
	}
	for i, c := range v.wide {
		out[i] = c
	}
	return out
}

// Occupied calls fn with the index and count of every non-empty bin, in
// ascending index order; fn must not add to v. It is the walk for callers
// outside the package; Merge and Recycle run the same two-line bit walk with
// their one-line bodies in place.
//
// Over a wide sparse region every count is a cache miss, and what bounds a
// walk is how many of those misses are in flight at once. A loop of a few
// instructions around the access keeps the load queue full; a loop that
// calls out per bin keeps two or three. So the counts are gathered a batch
// at a time in a tight loop of their own, and fn runs over the batch
// afterwards — worth 3× on a 10 M-bin region with 200 k values. A wide bin's
// mark is resolved in that second loop, not in the gather.
func (v *Vector) Occupied(fn func(i int, count int64)) {
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
			switch c := cnt[k]; c {
			case 0:
			case wideMark:
				fn(i, v.wide[i])
			default:
				fn(i, int64(c))
			}
		}
		n = 0
	}
}

// Cardinality returns the number of non-empty bins.
func (v *Vector) Cardinality() int { return v.nonEmpty }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	return &Vector{
		Min: v.Min, Divisor: v.Divisor, total: v.total, nonEmpty: v.nonEmpty,
		counts: append([]uint32(nil), v.counts...),
		wide:   maps.Clone(v.wide),
		occ:    append([]uint64(nil), v.occ...),
	}
}

// Reset zeroes all counts, keeping the range configuration. This mirrors the
// accelerator reusing a memory region for the next table. Only the occupied
// bins are written.
func (v *Vector) Reset() { v.Recycle(v.Min, v.Divisor, len(v.counts), nil) }

// Recycle empties v and re-aims it at n bins starting at min with the given
// divisor, keeping the backing arrays when they are large enough — the
// pooled form of NewVector. Emptying clears the occupied bins only, so a
// sparse vector over a wide range recycles in O(occupied + Δ/64) instead of
// a clear over the whole region. cleared, when non-nil, is called with the
// index of every non-empty bin (old geometry, ascending) as it is zeroed, so
// state kept per bin beside the vector can be reset on the same walk. The
// zero Vector is valid input.
func (v *Vector) Recycle(min, divisor int64, n int, cleared func(i int)) {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
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
	v.wide = nil
	// Both arrays are now zero over their whole capacity (every earlier
	// shrink cleared first), so growing back into it needs no second pass.
	if n <= cap(v.counts) && occWords(n) <= cap(v.occ) {
		v.counts, v.occ = v.counts[:n], v.occ[:occWords(n)]
	} else {
		v.alloc(n)
	}
	v.Min, v.Divisor, v.total, v.nonEmpty = min, divisor, 0, 0
}

// Merge adds other's counts into v. Both vectors must have identical range
// configuration. This implements the §7 (Future Work) scale-up path where
// replicated Binner modules produce partial counts in separate memories that
// are aggregated before histogram creation.
func (v *Vector) Merge(other *Vector) error {
	if v.Min != other.Min || v.Divisor != other.Divisor || len(v.counts) != len(other.counts) {
		return fmt.Errorf("bins: cannot merge vectors with different geometry (min %d/%d divisor %d/%d bins %d/%d)",
			v.Min, other.Min, v.Divisor, other.Divisor, len(v.counts), len(other.counts))
	}
	if other.wide != nil || !v.narrowPath(other.total) {
		other.Occupied(v.bumpWide)
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

// MergeAll merges any number of identically configured vectors into a fresh
// vector — the software form of the adder tree that aggregates replicated
// Binner memories (§7). The inputs are not modified. At least one vector is
// required; it defines the geometry the rest must match.
func MergeAll(vs ...*Vector) (*Vector, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("bins: MergeAll needs at least one vector")
	}
	out := new(Vector)
	out.Recycle(vs[0].Min, vs[0].Divisor, len(vs[0].counts), nil)
	for _, v := range vs {
		if err := out.Merge(v); err != nil {
			return nil, err
		}
	}
	return out, nil
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
