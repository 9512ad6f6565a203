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
	"sync"
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
// keeps a log of the writes instead, combined into one entry per bin before a
// read, and a walk costs O(entries). Total is a tally kept by the writes, and
// so is Cardinality in the dense form; the sparse form counts it as it
// combines.
//
// The host stores a count in 4 bytes, half the modelled 8-byte bin. A count
// that does not fit — negative, or wideMark and above — is stored as
// wideMark, and its full value lives in the wide map, which is nil while no
// such bin exists; a sparse vector's log adds to it as well (see sparse). The
// methods take and return int64 counts either way.
type Vector struct {
	Min     int64
	Divisor int64

	n        int      // bins
	counts   []uint32 // dense form
	occ      []uint64 // dense form
	sp       *sparse  // the sparse form when non-nil; counts and occ are nil
	wide     map[int]int64
	idle     map[int]int64 // an emptied wide map kept for the next one (see wideMap)
	total    int64
	nonEmpty int // bins with a count > 0

	// Every write to a bin writes total and nonEmpty too. The pad makes a
	// Vector two whole host cache lines, so that two lanes' vectors never
	// share one (see alloc).
	_ [16]byte
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
				v.idle, v.wide = v.wide, nil
			}
		}
		return uint32(c)
	}
	v.wideMap()[i] = c
	return wideMark
}

// wideMap returns v's wide map, taking the one v last emptied, or a new one,
// when v has none: a pooled region whose counts go wide scan after scan
// makes its map once.
func (v *Vector) wideMap() map[int]int64 {
	if v.wide == nil {
		v.wide, v.idle = v.idle, nil
		if v.wide == nil {
			v.wide = make(map[int]int64)
		}
	}
	return v.wide
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
	v.Recycle(min, divisor, int((max-min)/divisor+1), Dense)
	return v
}

// FromCounts builds a dense vector from a per-bin count slice (bin i at
// value min+i*divisor). The counts are copied; the slice stays the caller's.
func FromCounts(min, divisor int64, counts []int64) *Vector {
	v := new(Vector)
	v.Recycle(min, divisor, len(counts), Dense)
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

// AddAt adds count to bin i, which must be in [0, NumBins): the form is one
// pointer test, the dense narrow bump inlines here, and the rest stays out
// of line.
func (v *Vector) AddAt(i int, count int64) {
	switch {
	case v.sp != nil:
		v.sparseAdd(i, count)
	case v.narrowPath(count):
		v.bumpNarrow(i, count)
	default:
		v.occ[i>>6] |= 1 << (i & 63)
		v.bump(i, count)
	}
}

// bumpNarrow adds count to dense bin i when narrowPath(count) holds, and
// keeps the occupancy index and the two tallies in step; bump does the same
// for any count. Apart from Merge's narrow loop and Recycle, which do the
// same in bulk, and the sparse log (see sparse), they are the only writers
// of counts.
func (v *Vector) bumpNarrow(i int, count int64) {
	old := int64(v.counts[i])
	v.counts[i] = uint32(old + count)
	v.occ[i>>6] |= 1 << (i & 63)
	v.total += count
	v.nonEmpty += positive(old+count) - positive(old)
}

func (v *Vector) bump(i int, count int64) {
	cell := &v.counts[i]
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

// sparseAdd adds count to sparse bin i: an append to the log, with no
// lookup, whatever the count (see sparse).
func (v *Vector) sparseAdd(i int, count int64) {
	bin, s := v.sparseBin(i), v.sp
	v.total += count
	switch {
	case count > 0 && count < wideMark:
		s.ents = append(s.ents, entry{bin, uint32(count)})
	case count != 0:
		v.wideMap()[i] += count
		s.ents = append(s.ents, entry{bin, wideMark})
	}
	if s.logLimit() {
		v.Combine()
	}
}

// Combine folds a sparse vector's write log into its entries and brings the
// Cardinality tally up to date; a no-op on a dense vector or an empty log.
// Every read of a sparse vector's counts runs it first, so a read must not
// run beside any other use of the vector; a caller runs it ahead of the reads
// to choose where the sort's time goes.
func (v *Vector) Combine() {
	if s := v.sp; s != nil && s.combined < len(s.ents) {
		v.combine()
	}
}

// combine merges the sparse log into the combined entries (see sparse.merge)
// and sums each bin's run into one entry: the run's counts that are not
// marks, plus the bin's wide value when any entry of the run is a mark. The
// sum goes back through widen, so the wide map again holds exactly the bins
// whose counts do not fit a cell.
func (v *Vector) combine() {
	s := v.sp
	s.merge(v.n)
	ents, out := s.ents, 0
	v.nonEmpty = 0
	for k := 0; k < len(ents); out++ {
		bin, sum, mark := ents[k].bin, int64(0), uint32(0)
		for ; k < len(ents) && ents[k].bin == bin; k++ {
			if c := ents[k].count; c == wideMark {
				mark = wideMark
			} else {
				sum += int64(c)
			}
		}
		if mark == wideMark {
			sum += v.wide[int(bin)]
		}
		cell := uint32(sum)
		if mark == wideMark || sum >= wideMark {
			cell = v.widen(int(bin), mark, sum)
		}
		ents[out] = entry{bin, cell}
		v.nonEmpty += positive(sum)
	}
	s.ents, s.combined = ents[:out], out
}

// Count returns the count in bin i.
func (v *Vector) Count(i int) int64 {
	var c uint32
	if v.sp == nil {
		c = v.counts[i]
	} else {
		v.Combine()
		if k, ok := v.sp.search(v.sparseBin(i)); ok {
			c = v.sp.ents[k].count
		}
	}
	return v.cellCount(i, c)
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

// batch is the most bins one call of Batches hands over.
const batch = 256

// batchBufs holds the buffers Batches fills. A read hands its slices to a
// function value, which Go's escape analysis cannot see into, so buffers on
// the stack would move to the heap on every read.
var batchBufs = sync.Pool{New: func() any { return new([2][batch]int64) }}

// Batches is the read of the region: it calls fn with the values and counts
// of its non-empty bins, values[k] holding counts[k], in ascending value
// order, up to 256 bins a call; fn must not add to v or keep the slices. A
// sparse vector written since its last read combines its log first (see
// Combine).
//
// Over a wide dense region every count is a cache miss, and what bounds a
// walk is how many of those misses are in flight at once. A loop of a few
// instructions around the access keeps the load queue full; a loop that
// calls out per bin keeps two or three. So the counts are gathered a batch
// at a time in a tight loop of their own, and the batch is built from them
// afterwards — worth 3× on a 10 M-bin region with 200 k values. A wide bin's
// mark is resolved in that second loop, not in the gather. A sparse region's
// entries already lie in order, and are copied out in one loop. Either way a
// reader pays one call per batch, not one per bin.
func (v *Vector) Batches(fn func(values, counts []int64)) {
	buf := batchBufs.Get().(*[2][batch]int64)
	defer batchBufs.Put(buf)
	vals, cnts := &buf[0], &buf[1]
	if v.sp != nil {
		v.Combine()
		n := 0
		for _, e := range v.sp.ents {
			if e.count == 0 {
				continue
			}
			vals[n], cnts[n] = v.Value(int(e.bin)), v.cellCount(int(e.bin), e.count)
			if n++; n == batch {
				fn(vals[:], cnts[:])
				n = 0
			}
		}
		if n > 0 {
			fn(vals[:n], cnts[:n])
		}
		return
	}
	var idx [batch]int
	var cell [batch]uint32
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
			cell[k] = v.counts[i]
		}
		m := 0
		for k, i := range idx[:n] {
			if c := cell[k]; c != 0 {
				vals[m], cnts[m] = v.Value(i), v.cellCount(i, c)
				m++
			}
		}
		if m > 0 {
			fn(vals[:m], cnts[:m])
		}
		n = 0
	}
}

// cellCount returns the count of bin i, whose cell holds c.
func (v *Vector) cellCount(i int, c uint32) int64 {
	if c == wideMark {
		return v.wide[i]
	}
	return int64(c)
}

// Occupied calls fn with the index and count of every non-empty bin, in
// ascending index order; fn must not add to v. It is Batches, bin by bin.
func (v *Vector) Occupied(fn func(i int, count int64)) {
	v.Batches(func(values, counts []int64) {
		for k, x := range values {
			fn(v.Index(x), counts[k])
		}
	})
}

// Cardinality returns the number of non-empty bins.
func (v *Vector) Cardinality() int {
	v.Combine()
	return v.nonEmpty
}

// Recycle empties v and re-aims it at n bins starting at min with the given
// divisor, in the given form, keeping that form's storage when it is large
// enough — the pooled form of NewVector; storage of a form v leaves is
// dropped. Emptying clears the bins written only, so a vector over a wide
// range recycles in O(written + Δ/64) dense and O(1) sparse, not in a clear
// over the whole region. The zero Vector is valid input.
func (v *Vector) Recycle(min, divisor int64, n int, form Form) {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	if n < 0 || form == Sparse && uint64(n) > MaxSparseBins {
		panic(fmt.Sprintf("bins: %d bins in form %d", n, form))
	}
	for w, word := range v.occ {
		for ; word != 0; word &= word - 1 {
			v.counts[w<<6|bits.TrailingZeros64(word)] = 0
		}
	}
	clear(v.occ)
	if v.wide != nil {
		clear(v.wide)
		v.idle, v.wide = v.wide, nil
	}
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
	v.Combine()
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
// creation. Two sparse vectors each combine their logs and then merge as
// sorted runs (see mergeSparse), in one pass that sorts nothing.
func (v *Vector) Merge(other *Vector) error {
	if v.Min != other.Min || v.Divisor != other.Divisor || v.n != other.n {
		return fmt.Errorf("bins: cannot merge vectors with different geometry (min %d/%d divisor %d/%d bins %d/%d)",
			v.Min, other.Min, v.Divisor, other.Divisor, v.n, other.n)
	}
	other.Combine()
	switch {
	case v.sp != nil && other.sp != nil:
		v.Combine()
		v.mergeSparse(other)
		return nil
	case v.sp != nil || other.sp != nil || other.wide != nil || !v.narrowPath(other.total):
		other.Batches(func(values, counts []int64) {
			for k, x := range values {
				v.AddCount(x, counts[k])
			}
		})
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

// mergeSparse adds combined sparse region other into combined sparse region
// v: both runs of entries merge forward into v's spare buffer, which becomes
// its entries. A bin only one run holds is copied as it is; a bin both hold
// gets one entry with the two counts summed, each read through its own
// region's wide map, and the sum goes back through widen. A wide bin of
// other that v does not hold takes its value into v's wide map first, so its
// mark can be copied like any other entry.
func (v *Vector) mergeSparse(other *Vector) {
	s, x, y := v.sp, v.sp.ents, other.sp.ents
	for i, c := range other.wide {
		if _, ok := s.search(uint32(i)); !ok {
			v.wideMap()[i] = c
		}
	}
	if cap(s.spare) < len(x)+len(y) {
		s.spare = make([]entry, 0, len(x)+len(y))
	}
	out := s.spare[:len(x)+len(y)]
	nonEmpty := v.nonEmpty + other.nonEmpty
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		e, f := x[i], y[j]
		if e.bin == f.bin {
			a, b := v.cellCount(int(e.bin), e.count), other.cellCount(int(f.bin), f.count)
			sum := a + b
			cell := uint32(sum)
			if e.count == wideMark || uint64(sum) >= wideMark {
				cell = v.widen(int(e.bin), e.count, sum)
			}
			out[k] = entry{e.bin, cell}
			nonEmpty += positive(sum) - positive(a) - positive(b)
			i, j, k = i+1, j+1, k+1
			continue
		}
		// As in sparse.merge, the pick between the runs compiles to
		// conditional moves; a bin both hold is the rare case.
		t := 0
		if f.bin < e.bin {
			e, t = f, 1
		}
		out[k] = e
		i, j, k = i+1-t, j+t, k+1
	}
	k += copy(out[k:], x[i:])
	k += copy(out[k:], y[j:])
	s.ents, s.spare, s.combined = out[:k], x[:0], k
	v.nonEmpty = nonEmpty
	v.total += other.total
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
