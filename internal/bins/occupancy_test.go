package bins

import (
	"testing"

	"streamhist/internal/datagen"
)

// The occupancy index is an optimisation of the per-bin walks, and the
// Cardinality tally one of the count over them, never a change of their
// result. These tests hold every walk and the tally to a dense reference
// that loops over the whole count row the way the package did before either
// existed.

// occupancySizes straddle the index's word boundary and one batch of the
// Occupied walk.
var occupancySizes = []int{1, 63, 64, 65, 4097}

func denseCardinality(counts []int64) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

func denseTotal(counts []int64) int64 {
	var t int64
	for _, c := range counts {
		t += c
	}
	return t
}

// cellOf returns the 32-bit cell bin i is stored in, in either form; a
// sparse bin never written reads 0.
func cellOf(v *Vector, i int) uint32 {
	if v.sp == nil {
		return v.counts[i]
	}
	if k, ok := v.sp.search(uint32(i)); ok {
		return v.sp.ents[k].count
	}
	return 0
}

// checkAgainstDense compares everything observable about v, in either form,
// with the dense reference row want.
func checkAgainstDense(t *testing.T, label string, v *Vector, want []int64) {
	t.Helper()
	if v.NumBins() != len(want) {
		t.Fatalf("%s: NumBins = %d, want %d", label, v.NumBins(), len(want))
	}
	// Bin by bin, and in the width the count needs: a count that fits is
	// stored in counts, one that does not behind the mark, and the wide map
	// is nil when no bin needs it.
	wide := 0
	for i, w := range want {
		if got := v.Count(i); got != w {
			t.Fatalf("%s: Count(%d) = %d, want %d", label, i, got, w)
		}
		if got := v.CountValue(v.Value(i)); got != w {
			t.Fatalf("%s: CountValue(%d) = %d, want %d", label, v.Value(i), got, w)
		}
		if isWide := uint64(w) >= wideMark; isWide != (cellOf(v, i) == wideMark) {
			t.Fatalf("%s: bin %d with count %d stored behind the mark: %v", label, i, w, !isWide)
		} else if isWide {
			wide++
		}
	}
	if len(v.wide) != wide || (wide == 0) != (v.wide == nil) {
		t.Fatalf("%s: wide map holds %d bins (nil %v), want %d", label, len(v.wide), v.wide == nil, wide)
	}
	if got, w := v.Total(), denseTotal(want); got != w {
		t.Fatalf("%s: Total = %d, want %d", label, got, w)
	}
	if got, w := v.Cardinality(), denseCardinality(want); got != w {
		t.Fatalf("%s: Cardinality = %d, want %d", label, got, w)
	}
	// NonZero is every bin with a positive count, ascending, by value.
	nz, k := v.NonZero(), 0
	for i, c := range want {
		if c <= 0 {
			continue
		}
		if w := (Bin{Value: v.Min + int64(i)*v.Divisor, Count: c}); k == len(nz) || nz[k] != w {
			t.Fatalf("%s: NonZero = %v, want %v at index %d", label, nz, w, k)
		}
		k++
	}
	if k != len(nz) {
		t.Fatalf("%s: NonZero = %v, want %d bins", label, nz, k)
	}
	// The primitive itself: ascending, every non-empty bin exactly once, with
	// its count.
	last := -1
	seen := 0
	v.Occupied(func(i int, c int64) {
		if i <= last {
			t.Fatalf("%s: Occupied not ascending: %d after %d", label, i, last)
		}
		if c == 0 || c != want[i] {
			t.Fatalf("%s: Occupied(%d) = %d, want %d", label, i, c, want[i])
		}
		last = i
		seen++
	})
	nonEmpty := 0
	for _, c := range want {
		if c != 0 {
			nonEmpty++
		}
	}
	if seen != nonEmpty {
		t.Fatalf("%s: Occupied visited %d bins, want %d", label, seen, nonEmpty)
	}
	// The batched read: batches of 1 to 256 bins, values ascending across
	// them, every non-empty bin exactly once with its value and count.
	var lastValue int64
	seen = 0
	v.Batches(func(values, counts []int64) {
		if len(values) == 0 || len(values) > batch || len(counts) != len(values) {
			t.Fatalf("%s: Batches handed %d values and %d counts", label, len(values), len(counts))
		}
		for k, x := range values {
			i := v.Index(x)
			if i < 0 || x != v.Value(i) || seen > 0 && x <= lastValue {
				t.Fatalf("%s: Batches value %d after %d is not an ascending bin value", label, x, lastValue)
			}
			if c := counts[k]; c == 0 || c != want[i] {
				t.Fatalf("%s: Batches bin %d = %d, want %d", label, i, c, want[i])
			}
			lastValue = x
			seen++
		}
	})
	if seen != nonEmpty {
		t.Fatalf("%s: Batches read %d bins, want %d", label, seen, nonEmpty)
	}
}

// countsOf returns v's count row, bin i at index i.
func countsOf(v *Vector) []int64 {
	row := make([]int64, v.NumBins())
	v.Occupied(func(i int, c int64) { row[i] = c })
	return row
}

// copyOf returns a fresh vector in v's form holding v's counts, made the way
// a pooled region is refilled: Recycle, then Merge.
func copyOf(t *testing.T, v *Vector) *Vector {
	t.Helper()
	c := new(Vector)
	c.Recycle(v.Min, v.Divisor, v.NumBins(), v.Form())
	if err := c.Merge(v); err != nil {
		t.Fatal(err)
	}
	return c
}

// randomRow draws a count row of n bins: fill is the probability that a bin
// is non-empty (0 = all-empty, 1 = all-full).
func randomRow(rng *datagen.RNG, n int, fill float64) []int64 {
	row := make([]int64, n)
	for i := range row {
		if rng.Float64() < fill {
			row[i] = 1 + rng.Int63n(9)
		}
	}
	return row
}

// fillVector builds the row in form through the public write path, in
// random order, with AddCount(·, 0) calls sprinkled over empty bins: they
// set occupancy bits (or add entries) over zero counts, which every walk
// must see through.
func fillVector(rng *datagen.RNG, min, divisor int64, row []int64, form Form) *Vector {
	v := new(Vector)
	v.Recycle(min, divisor, len(row), form)
	for _, i := range rng.Perm(len(row)) {
		val := min + int64(i)*divisor + rng.Int63n(divisor)
		switch c := row[i]; {
		case c == 0 && rng.Intn(4) == 0:
			v.AddCount(val, 0)
		case c == 1:
			v.Add(val)
		case c > 1:
			v.AddCount(val, c-1)
			v.Add(val)
		}
	}
	return v
}

// Each case runs once per form of the vector under test; the vector merged
// into it is in the other form, and a third merge mixes all three.
func TestOccupancyWalkEqualsDenseWalk(t *testing.T) {
	rng := datagen.NewRNG(20140622)
	for _, n := range occupancySizes {
		for _, fill := range []float64{0, 0.02, 0.5, 1} {
			for _, divisor := range []int64{1, 7} {
				for _, form := range []Form{Dense, Sparse} {
					occupancyCase(t, rng, n, fill, divisor, form)
				}
			}
		}
	}
}

func occupancyCase(t *testing.T, rng *datagen.RNG, n int, fill float64, divisor int64, form Form) {
	t.Helper()
	min := rng.Int63n(1000) - 500
	a := randomRow(rng, n, fill)
	b := randomRow(rng, n, 0.3)
	c := randomRow(rng, n, 1)

	va := fillVector(rng, min, divisor, a, form)
	checkAgainstDense(t, "Add/AddCount", va, a)
	checkAgainstDense(t, "FromCounts", FromCounts(min, divisor, append([]int64{}, a...)), a)

	clone := copyOf(t, va)
	checkAgainstDense(t, "copy", clone, a)

	// Merge into the copy; the original must not move.
	vb := fillVector(rng, min, divisor, b, 1-form)
	if err := clone.Merge(vb); err != nil {
		t.Fatal(err)
	}
	ab := make([]int64, n)
	for i := range ab {
		ab[i] = a[i] + b[i]
	}
	checkAgainstDense(t, "Merge", clone, ab)
	checkAgainstDense(t, "Merge left its source", vb, b)
	checkAgainstDense(t, "copy is deep", va, a)

	vc := FromCounts(min, divisor, append([]int64{}, c...))
	all := copyOf(t, va)
	for _, src := range []*Vector{vb, vc} {
		if err := all.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	abc := make([]int64, n)
	for i := range abc {
		abc[i] = ab[i] + c[i]
	}
	checkAgainstDense(t, "three-way merge", all, abc)
	checkAgainstDense(t, "three-way merge left its inputs", va, a)

	// Recycle to the same geometry empties everything, and the vector fills
	// again.
	all.Recycle(min, divisor, n, all.Form())
	checkAgainstDense(t, "Recycle", all, make([]int64, n))
	if err := all.Merge(vb); err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, "refill after Recycle", all, b)
}

// TestAddCountZeroSetsNoCount: AddCount of 0 may set an occupancy bit, and
// counts may cancel back to zero or go below it; none of that may show up
// as a non-empty bin in any walk or in the Cardinality tally.
func TestAddCountZeroSetsNoCount(t *testing.T) {
	v := NewVector(0, 129, 1)
	v.AddCount(64, 0)
	v.AddCount(65, 5)
	v.AddCount(65, -5)
	v.AddCount(3, -2)
	v.AddCount(129, 2)
	want := make([]int64, 130)
	want[3] = -2
	want[129] = 2
	checkAgainstDense(t, "zero-count bits", v, want)
	other := NewVector(0, 129, 1)
	if err := other.Merge(v); err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, "merged zero-count bits", other, want)
}

// TestRecycleAcrossGeometries drives one vector through shrinking and
// growing geometries. After each Recycle the vector must be empty under the
// new geometry — and, looking at the backing arrays over their whole
// capacity, hold no stale count and no stale occupancy bit anywhere, which
// is what makes growing back into spare capacity sound.
func TestRecycleAcrossGeometries(t *testing.T) {
	rng := datagen.NewRNG(7)
	v := new(Vector)
	for step, n := range []int{4097, 65, 4097, 1, 64, 63, 5000, 64, 4097, 9000, 65} {
		min, divisor := rng.Int63n(100), 1+rng.Int63n(3)
		v.Recycle(min, divisor, n, Dense)
		if v.Min != min || v.Divisor != divisor {
			t.Fatalf("step %d: geometry not taken", step)
		}
		checkAgainstDense(t, "recycled", v, make([]int64, n))
		for i, c := range v.counts[:cap(v.counts)] {
			if c != 0 {
				t.Fatalf("step %d: stale count %d at %d (len %d, cap %d)", step, c, i, n, cap(v.counts))
			}
		}
		for w, word := range v.occ[:cap(v.occ)] {
			if word != 0 {
				t.Fatalf("step %d: stale occupancy word %d (len %d)", step, w, len(v.occ))
			}
		}

		// Dirty it for the next round: a random fill that always touches
		// the last bin, the one a shrink is most likely to strand.
		row := randomRow(rng, n, 0.4)
		row[n-1] = 3
		for i, c := range row {
			if c != 0 {
				v.AddCount(min+int64(i)*divisor, c)
			}
		}
		checkAgainstDense(t, "refilled", v, row)
	}
}

// TestFromCountsDoesNotTrustSpareCapacity: the caller's slice may have
// garbage past its length; a later Recycle must not grow into it.
func TestFromCountsDoesNotTrustSpareCapacity(t *testing.T) {
	buf := []int64{1, 2, 3, 99, 99, 99}
	v := FromCounts(0, 1, buf[:3])
	v.Recycle(0, 1, 6, Dense)
	checkAgainstDense(t, "grown past a clipped slice", v, make([]int64, 6))
}

// TestWarmRecycleDoesNotAllocate: once the backing arrays fit, emptying and
// re-aiming a vector is allocation-free, whatever it held.
func TestWarmRecycleDoesNotAllocate(t *testing.T) {
	v := new(Vector)
	v.Recycle(0, 1, 4097, Dense)
	fill := func() {
		for i := 0; i < v.NumBins(); i += 37 {
			v.AddCount(v.Value(i), 2)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(50, func() {
		v.Recycle(5, 1, 4000, Dense)
		fill()
		v.Recycle(0, 1, 4097, Dense)
		fill()
	}); allocs != 0 {
		t.Fatalf("warm recycle allocates %.0f times per run", allocs)
	}
}

// The host stores counts in 32 bits with a wide escape. These hold every
// observable of a region with counts at and around the mark, below zero, and
// with a total past 2^32 to the same dense []int64 reference.

const two32 = int64(1) << 32

func TestWideEscapeEqualsDense(t *testing.T) {
	const n = 130
	want := make([]int64, n)
	v := NewVector(-7, -7+(n-1)*3, 3)
	add := func(label string, i int, c int64) {
		t.Helper()
		v.AddCount(v.Value(i), c)
		want[i] += c
		checkAgainstDense(t, label, v, want)
	}
	add("just below the mark", 1, two32-2)
	add("at the mark", 64, two32-1)
	add("past the mark", 129, two32)
	add("below zero", 3, -5)
	add("back under the mark", 64, -1)
	add("back to zero", 3, 5)
	add("a bin crossing the mark by one", 1, 1)
	add("far below zero", 70, -3*two32)
	add("small add to a wide bin", 129, 2)

	// A copy has its own wide map: writing to the copy leaves v alone.
	clone := copyOf(t, v)
	checkAgainstDense(t, "copy", clone, want)
	clone.AddCount(clone.Value(129), 5)
	clone.AddCount(clone.Value(70), 3*two32)
	checkAgainstDense(t, "copy is deep", v, want)

	// Merging two such regions, and a narrow one into a wide one.
	other := FromCounts(v.Min, v.Divisor, want)
	checkAgainstDense(t, "FromCounts", other, want)
	if err := other.Merge(v); err != nil {
		t.Fatal(err)
	}
	doubled := make([]int64, n)
	for i, c := range want {
		doubled[i] = 2 * c
	}
	checkAgainstDense(t, "Merge of two wide regions", other, doubled)
	checkAgainstDense(t, "Merge left its source", v, want)
	ones := make([]int64, n)
	for i := range ones {
		ones[i] = 1
		doubled[i]++
	}
	if err := other.Merge(FromCounts(v.Min, v.Divisor, ones)); err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, "Merge of a narrow region into a wide one", other, doubled)

	// Recycle leaves no wide entry behind, and the region fills
	// again on the narrow path.
	v.Recycle(0, 1, 200, Dense)
	checkAgainstDense(t, "Recycle", v, make([]int64, 200))
	v.AddCount(5, 7)
	refill := make([]int64, 200)
	refill[5] = 7
	checkAgainstDense(t, "refill after Recycle", v, refill)
	other.Recycle(other.Min, other.Divisor, n, other.Form())
	checkAgainstDense(t, "Recycle to the same geometry", other, make([]int64, n))
}

// TestTotalPastTwo32: no bin reaches the mark, but the region's total does —
// through AddCount, FromCounts and Merge. Past that point the writes can no
// longer rule a wide bin out by the total, and must still be exact.
func TestTotalPastTwo32(t *testing.T) {
	const n = 70
	half := two32/2 - 10
	want := make([]int64, n)
	v := NewVector(0, n-1, 1)
	for _, i := range []int{0, 63, 64} {
		v.AddCount(int64(i), half)
		want[i] += half
	}
	checkAgainstDense(t, "AddCount past 2^32 in total", v, want)
	for _, i := range []int{0, 0, 64, 69} {
		v.AddCount(int64(i), 1)
		want[i]++
	}
	checkAgainstDense(t, "AddCount after the total passed 2^32", v, want)
	// Ones that take the total over the mark take bin 0 over it, in either
	// form.
	for _, form := range []Form{Dense, Sparse} {
		o := new(Vector)
		o.Recycle(0, 1, n, form)
		o.AddCount(0, two32-3)
		for _, i := range []int{0, 0, 5, 0} {
			o.AddAt(i, 1)
		}
		row := make([]int64, n)
		row[0], row[5] = two32, 1
		checkAgainstDense(t, "ones over the mark", o, row)
	}

	fc := FromCounts(0, 1, want)
	checkAgainstDense(t, "FromCounts past 2^32 in total", fc, want)

	// Two narrow regions whose merged bins stay narrow but whose merged
	// total does not, then one merge that takes bin 0 over the mark.
	a := FromCounts(0, 1, []int64{half, 0, 9, half})
	b := FromCounts(0, 1, []int64{1, 2, 0, half})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, "Merge past 2^32 in total", a, []int64{half + 1, 2, 9, 2 * half})
	if err := a.Merge(FromCounts(0, 1, []int64{two32, 0, 0, 0})); err != nil {
		t.Fatal(err)
	}
	want4 := []int64{half + 1 + two32, 2, 9, 2 * half}
	checkAgainstDense(t, "Merge over the mark", a, want4)

	all := copyOf(t, a)
	if err := all.Merge(a); err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, "Merge of wide regions", all, []int64{2 * want4[0], 4, 18, 4 * half})
	a.Recycle(0, 1, 4, Dense)
	checkAgainstDense(t, "Recycle after wide", a, make([]int64, 4))
}

// TestSparsePastTwo32ManyBins: once a sparse region's total passes 2^32 and
// it holds wide and negative bins, writes of one to 200 000 bins it has not
// held, and a merge of two such regions, are still appends to its log. A
// write that had to find its bin's place in the combined entries would move
// them once a bin, about 2·10^10 entry moves here.
func TestSparsePastTwo32ManyBins(t *testing.T) {
	const n, fresh = 1 << 20, 200_000
	rng := datagen.NewRNG(11)
	fill := func(seed int) (*Vector, []int64) {
		v, want := new(Vector), make([]int64, n)
		v.Recycle(0, 1, n, Sparse)
		add := func(i int, c int64) {
			v.AddAt(i, c)
			want[i] += c
		}
		add(seed, two32+5)
		add(seed+1, -7)
		for _, i := range rng.Perm(n)[:fresh] {
			add(i, 1)
		}
		for _, i := range rng.Perm(n)[:fresh/10] {
			add(i, -1)
		}
		return v, want
	}
	a, wantA := fill(3)
	checkAgainstDense(t, "ones past 2^32 into new bins", a, wantA)
	b, wantB := fill(9)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i, c := range wantB {
		wantA[i] += c
	}
	checkAgainstDense(t, "merge of two regions past 2^32", a, wantA)
	checkAgainstDense(t, "merge left its source", b, wantB)
}
