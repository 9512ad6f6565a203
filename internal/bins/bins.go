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
// keeps logs of the writes instead, one per partition of the bins, each
// combined into one entry per bin before a read, and a walk costs
// O(entries + partitions). Total is a tally kept by the writes, and so is
// Cardinality in the dense form; the sparse form counts it per partition as
// it combines.
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
	nonEmpty int              // dense form: bins with a count > 0
	buf      *[2][batch]int64 // the buffers Batches fills, made by the first read

	// Every write to a bin writes total and nonEmpty too. The pad makes a
	// Vector two whole host cache lines, so that two lanes' vectors never
	// share one (see alloc).
	_ [8]byte
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

// AddOnes adds one to each bin of bins, each in [0, NumBins), as AddAt(i, 1)
// would one by one. A dense region the whole batch keeps narrow (see
// narrowPath) takes it in one loop that sets a bin's occupancy bit and the
// non-empty tally only when the bin goes from 0 to 1, since a bin above 0
// has its bit set already; any other region takes the bins one by one.
func (v *Vector) AddOnes(bins []int) {
	if v.sp != nil || !v.narrowPath(int64(len(bins))) {
		for _, i := range bins {
			v.AddAt(i, 1)
		}
		return
	}
	counts, occ := v.counts, v.occ
	filled := 0
	for _, i := range bins {
		c := counts[i]
		counts[i] = c + 1
		if c == 0 {
			occ[i>>6] |= 1 << (i & 63)
			filled++
		}
	}
	v.total += int64(len(bins))
	v.nonEmpty += filled
}

// bumpNarrow adds count to dense bin i when narrowPath(count) holds, and
// keeps the occupancy index and the two tallies in step; bump does the same
// for any count. Apart from AddOnes and Merge's narrow loops and Recycle,
// which do the same in bulk, and the sparse log (see sparse), they are the
// only writers of counts.
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

// sparseAdd adds count to sparse bin i: an append to its partition's log,
// with no lookup, whatever the count (see sparse). The append makes room
// first, which may combine the partition, and only then does a count a cell
// cannot hold go to the wide map: a combine between the two would find the
// bin wide with no mark logged, store its logged sum over the wide value and
// lose count.
func (v *Vector) sparseAdd(i int, count int64) {
	bin := v.sparseBin(i)
	if count == 0 {
		return
	}
	v.total += count
	k := bin >> partBits
	l := &v.sp.logs[k]
	if l.fill == chunkLen {
		v.logChunk(int(k))
	}
	e := entry{bin, uint32(count)}
	if count < 0 || count >= wideMark {
		v.wideMap()[i] += count
		e.count = wideMark
	}
	l.tail.ents[l.fill] = e
	l.fill++
}

// Combine folds a sparse vector's write logs into their runs and brings the
// Cardinality tally up to date; a no-op on a dense vector or empty logs.
// Every read of a sparse vector's counts runs it first, so a read must not
// run beside any other use of the vector; a caller runs it ahead of the reads
// to choose where the sort's time goes.
func (v *Vector) Combine() {
	if v.sp == nil {
		return
	}
	for k := range v.sp.parts {
		if v.sp.logs[k].tail != nil {
			v.combinePart(k)
		}
	}
}

// Count returns the count in bin i.
func (v *Vector) Count(i int) int64 {
	var c uint32
	if v.sp == nil {
		c = v.counts[i]
	} else {
		bin := v.sparseBin(i)
		k := int(bin >> partBits)
		if v.sp.logs[k].tail != nil {
			v.combinePart(k)
		}
		c, _ = v.sp.find(&v.sp.parts[k], bin)
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

// Batches is the read of the region: it calls fn with the values and counts
// of its non-empty bins, values[k] holding counts[k], in ascending value
// order, up to 256 bins a call; fn must not add to v or keep the slices. A
// sparse vector written since its last read combines its logs first (see
// Combine), and is read partition by partition, in order.
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
//
// The two buffers a batch is built in are v's own, made by its first read
// and kept across Recycle: a read hands its slices to a function value,
// which Go's escape analysis cannot see into, so buffers on the stack would
// move to the heap on every read, and a pool would be emptied by every GC.
func (v *Vector) Batches(fn func(values, counts []int64)) {
	if v.buf == nil {
		v.buf = new([2][batch]int64)
	}
	vals, cnts := &v.buf[0], &v.buf[1]
	if v.sp != nil {
		v.Combine()
		n := 0
		for k := range v.sp.parts {
			r := v.sp.reader(&v.sp.parts[k])
			for ents := r.next(); ents != nil; ents = r.next() {
				for _, e := range ents {
					if e.count == 0 {
						continue
					}
					vals[n], cnts[n] = v.Value(int(e.bin)), v.cellCount(int(e.bin), e.count)
					if n++; n == batch {
						fn(vals[:], cnts[:])
						n = 0
					}
				}
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
	if v.sp == nil {
		return v.nonEmpty
	}
	v.Combine()
	n := 0
	for k := range v.sp.parts {
		n += int(v.sp.parts[k].pos)
	}
	return n
}

// Recycle empties v and re-aims it at n bins starting at min with the given
// divisor, in the given form, keeping that form's storage when it is large
// enough — the pooled form of NewVector; storage of a form v leaves is
// dropped. Emptying clears the bins written only, so a vector over a wide
// range recycles in O(written + Δ/64) dense and O(partitions) sparse, not in
// a clear over the whole region. The zero Vector is valid input.
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
		v.sp.reset(n)
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
	for k := range sp.parts {
		r := sp.reader(&sp.parts[k])
		for ents := r.next(); ents != nil; ents = r.next() {
			for _, e := range ents {
				v.counts[e.bin] = e.count
				v.occ[e.bin>>6] |= 1 << (e.bin & 63)
			}
		}
		v.nonEmpty += int(sp.parts[k].pos)
	}
}

// Merge adds other's counts into v, either form into either form. Both
// vectors must have identical range configuration. This implements the §7
// (Future Work) scale-up path where replicated Binner modules produce
// partial counts in separate memories that are aggregated before histogram
// creation. Two sparse vectors each combine their logs and then merge
// partition by partition, as sorted runs (see mergePart), in passes that
// sort nothing.
func (v *Vector) Merge(other *Vector) error {
	if err := v.sameGeometry(other); err != nil {
		return err
	}
	other.Combine()
	switch {
	case v.sp != nil && other.sp != nil:
		v.mergeSparse([]*Vector{other}, 1)
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

// sameGeometry returns Merge's error when other does not cover v's bins.
func (v *Vector) sameGeometry(other *Vector) error {
	if v.Min != other.Min || v.Divisor != other.Divisor || v.n != other.n {
		return fmt.Errorf("bins: cannot merge vectors with different geometry (min %d/%d divisor %d/%d bins %d/%d)",
			v.Min, other.Min, v.Divisor, other.Divisor, v.n, other.n)
	}
	return nil
}

// MergeAll merges every region of srcs into v, as Merge does one at a time,
// and reports whether it could merge them all at once, partition by
// partition, with up to ways goroutines sharing the partitions (see
// mergeSparse). That takes every region sparse, of v's geometry and holding
// no wide bin, and their totals together below a cell's mark, so that no sum
// can go wide; when it reports false it has changed nothing, and the caller
// merges the regions one by one.
func (v *Vector) MergeAll(srcs []*Vector, ways int) bool {
	if v.sp == nil || v.wide != nil {
		return false
	}
	added := int64(0)
	for _, src := range srcs {
		if src.sp == nil || src.wide != nil || v.sameGeometry(src) != nil {
			return false
		}
		added += src.total
	}
	if !v.narrowPath(added) {
		return false
	}
	v.mergeSparse(srcs, ways)
	return true
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
