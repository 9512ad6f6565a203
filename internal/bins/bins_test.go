package bins

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"streamhist/internal/datagen"
)

func TestNewVectorGeometry(t *testing.T) {
	v := NewVector(10, 29, 1)
	if v.NumBins() != 20 {
		t.Errorf("NumBins = %d, want 20", v.NumBins())
	}
	v2 := NewVector(0, 99, 10)
	if v2.NumBins() != 10 {
		t.Errorf("divisor 10: NumBins = %d, want 10", v2.NumBins())
	}
}

func TestNewVectorRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewVector(0, 10, 0) },
		func() { NewVector(10, 0, 1) },
		func() { FromCounts(0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAddAndCount(t *testing.T) {
	v := NewVector(100, 199, 1)
	v.Add(100)
	v.Add(100)
	v.Add(150)
	if v.Total() != 3 {
		t.Errorf("Total = %d", v.Total())
	}
	if v.CountValue(100) != 2 {
		t.Errorf("CountValue(100) = %d", v.CountValue(100))
	}
	if v.CountValue(150) != 1 {
		t.Errorf("CountValue(150) = %d", v.CountValue(150))
	}
	if v.CountValue(151) != 0 {
		t.Errorf("CountValue(151) = %d", v.CountValue(151))
	}
	if v.CountValue(99) != 0 {
		t.Errorf("out-of-range CountValue = %d", v.CountValue(99))
	}
	if v.Cardinality() != 2 {
		t.Errorf("Cardinality = %d", v.Cardinality())
	}
}

func TestAddCount(t *testing.T) {
	v := NewVector(0, 99, 1)
	v.AddCount(10, 5)
	v.AddCount(10, 3)
	if v.CountValue(10) != 8 || v.Total() != 8 {
		t.Errorf("count=%d total=%d", v.CountValue(10), v.Total())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range AddCount")
		}
	}()
	v.AddCount(200, 1)
}

func TestFromCounts(t *testing.T) {
	v := FromCounts(5, 2, []int64{3, 0, 7})
	if v.Total() != 10 {
		t.Errorf("total = %d", v.Total())
	}
	if v.Value(2) != 9 {
		t.Errorf("Value(2) = %d", v.Value(2))
	}
	if v.CountValue(5) != 3 || v.CountValue(6) != 3 { // divisor 2: 5 and 6 share bin 0
		t.Error("divisor mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero divisor")
		}
	}()
	FromCounts(0, 0, []int64{1})
}

func TestAddOutOfRangePanics(t *testing.T) {
	v := NewVector(0, 9, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	v.Add(10)
}

func TestDivisorCoarsening(t *testing.T) {
	// Seconds-to-days style coarsening: divisor 86400.
	v := NewVector(0, 86400*10-1, 86400)
	if v.NumBins() != 10 {
		t.Fatalf("NumBins = %d", v.NumBins())
	}
	v.Add(0)
	v.Add(86399)  // same day
	v.Add(86400)  // next day
	v.Add(500000) // day 5
	if v.Count(0) != 2 {
		t.Errorf("day 0 count = %d", v.Count(0))
	}
	if v.Count(1) != 1 {
		t.Errorf("day 1 count = %d", v.Count(1))
	}
	if v.Count(5) != 1 {
		t.Errorf("day 5 count = %d", v.Count(5))
	}
	if v.Value(5) != 5*86400 {
		t.Errorf("Value(5) = %d", v.Value(5))
	}
}

func TestIndexBoundaries(t *testing.T) {
	v := NewVector(10, 19, 1)
	if v.Index(9) != -1 {
		t.Error("below-range Index should be -1")
	}
	if v.Index(20) != -1 {
		t.Error("above-range Index should be -1")
	}
	if v.Index(10) != 0 || v.Index(19) != 9 {
		t.Error("boundary indices wrong")
	}
	// Far above a range that starts below zero, value−Min overflows int64.
	for _, divisor := range []int64{1, 7} {
		w := NewVector(-10, 100, divisor)
		if i := w.Index(math.MaxInt64 - 5); i != -1 {
			t.Errorf("divisor %d: Index(MaxInt64-5) = %d", divisor, i)
		}
		if c := w.CountValue(math.MaxInt64 - 5); c != 0 {
			t.Errorf("divisor %d: CountValue(MaxInt64-5) = %d", divisor, c)
		}
	}
}

func TestBuildMatchesReferenceCounts(t *testing.T) {
	rng := datagen.NewRNG(1)
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(300) - 100
	}
	v := Build(vals, 1)
	want := datagen.Counts(vals)
	if v.Total() != int64(len(vals)) {
		t.Fatalf("Total = %d", v.Total())
	}
	if v.Cardinality() != len(want) {
		t.Fatalf("Cardinality = %d, want %d", v.Cardinality(), len(want))
	}
	for val, c := range want {
		if got := v.CountValue(val); got != c {
			t.Errorf("CountValue(%d) = %d, want %d", val, got, c)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	v := Build(nil, 1)
	if v.Total() != 0 || v.Cardinality() != 0 {
		t.Error("empty build should be empty")
	}
}

func TestNonZeroSortedAndComplete(t *testing.T) {
	vals := []int64{5, 3, 5, 9, 3, 3}
	v := Build(vals, 1)
	nz := v.NonZero()
	if len(nz) != 3 {
		t.Fatalf("NonZero len = %d", len(nz))
	}
	if nz[0].Value != 3 || nz[0].Count != 3 {
		t.Errorf("nz[0] = %+v", nz[0])
	}
	if nz[1].Value != 5 || nz[1].Count != 2 {
		t.Errorf("nz[1] = %+v", nz[1])
	}
	if nz[2].Value != 9 || nz[2].Count != 1 {
		t.Errorf("nz[2] = %+v", nz[2])
	}
}

func TestMergeEqualsConcatenatedBuild(t *testing.T) {
	// Invariant from DESIGN.md: merging partial counts (the §7 scale-up
	// path) equals binning the concatenated input.
	f := func(a, b []uint8) bool {
		all := make([]int64, 0, len(a)+len(b))
		va := NewVector(0, 255, 1)
		vb := NewVector(0, 255, 1)
		for _, x := range a {
			va.Add(int64(x))
			all = append(all, int64(x))
		}
		for _, x := range b {
			vb.Add(int64(x))
			all = append(all, int64(x))
		}
		if err := va.Merge(vb); err != nil {
			return false
		}
		want := datagen.Counts(all)
		if va.Total() != int64(len(all)) {
			return false
		}
		for val, c := range want {
			if va.CountValue(val) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeRejectsMismatchedGeometry(t *testing.T) {
	a := NewVector(0, 9, 1)
	b := NewVector(0, 19, 1)
	if err := a.Merge(b); err == nil {
		t.Error("mismatched bin counts should not merge")
	}
	c := NewVector(1, 10, 1)
	if err := a.Merge(c); err == nil {
		t.Error("mismatched min should not merge")
	}
	d := NewVector(0, 19, 2)
	if err := a.Merge(d); err == nil {
		t.Error("mismatched divisor should not merge")
	}
}

func TestTotalInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		v := NewVector(0, 1<<16-1, 1)
		for _, x := range raw {
			v.Add(int64(x))
		}
		var sum int64
		for _, c := range countsOf(v) {
			sum += c
		}
		return sum == v.Total() && v.Total() == int64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBatchesBuffersOutliveGC: the buffers a batched read fills are the
// region's, made by its first read and kept across Recycle, in either form,
// so a read after a GC cycle, which would empty a pool, allocates nothing,
// and a Vector is still two host lines.
func TestBatchesBuffersOutliveGC(t *testing.T) {
	if s := unsafe.Sizeof(Vector{}); s != 2*hostLine {
		t.Fatalf("a Vector is %d bytes, want %d", s, 2*hostLine)
	}
	for _, form := range []Form{Dense, Sparse} {
		v := new(Vector)
		total := int64(0)
		fill := func() {
			v.Recycle(-40, 1, 5000, form)
			for i := 0; i < 5000; i += 3 {
				v.AddAt(i, int64(i%7))
			}
		}
		read := func() {
			total = 0
			v.Batches(func(_, counts []int64) {
				for _, c := range counts {
					total += c
				}
			})
		}
		fill()
		read()
		buf := v.buf
		fill()
		if v.buf != buf {
			t.Fatalf("form %d: Recycle dropped the batch buffers", form)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			runtime.GC()
			read()
		}); allocs != 0 || total != v.Total() {
			t.Fatalf("form %d: a read after a GC allocates %.0f times and reads %d of %d", form, allocs, total, v.Total())
		}
	}
}

// TestRegionIsWholeHostLines: a lane's vector and arrays fill whole host
// cache lines, so two lanes' regions never share one.
func TestRegionIsWholeHostLines(t *testing.T) {
	if s := unsafe.Sizeof(Vector{}); s%hostLine != 0 {
		t.Fatalf("a Vector is %d bytes, not whole %d-byte lines", s, hostLine)
	}
	for _, n := range []int{1, 50, 64, 65, 1000} {
		v := new(Vector)
		v.Recycle(0, 1, n, Dense)
		if b := cap(v.counts) * 4; b%hostLine != 0 {
			t.Fatalf("%d bins: counts take %d bytes", n, b)
		}
		if b := cap(v.occ) * 8; b%hostLine != 0 {
			t.Fatalf("%d bins: occupancy index takes %d bytes", n, b)
		}
	}
}

// TestSparseLogStaysBounded: a sparse region over 10 M bins that takes 2 M
// writes of one to 100 bins, as the binner writes them, keeps its write log
// near the bins it holds — under 1 MiB, where an uncombined log would take
// 16 MB — reads exactly as the dense form of the same writes one by one
// does, and once warm refills without allocating.
func TestSparseLogStaysBounded(t *testing.T) {
	const n, rows = 10_300_000, 2_000_000
	rng := datagen.NewRNG(5)
	hot := make([]int, 100)
	for k := range hot {
		hot[k] = rng.Intn(n)
	}
	writes := make([]int, rows)
	for k := range writes {
		writes[k] = hot[rng.Intn(len(hot))]
	}
	var sparse, dense Vector
	sparse.Recycle(0, 1, n, Sparse)
	dense.Recycle(0, 1, n, Dense)
	fill := func() {
		sparse.Recycle(0, 1, n, Sparse)
		for _, i := range writes {
			sparse.AddAt(i, 1)
			if b := sparse.Bytes(); b > 1<<20 {
				t.Fatalf("sparse region takes %d bytes", b)
			}
		}
	}
	fill()
	for _, i := range writes {
		dense.AddAt(i, 1)
	}
	if sparse.Total() != dense.Total() || sparse.Cardinality() != dense.Cardinality() {
		t.Fatalf("total %d, cardinality %d; dense %d, %d", sparse.Total(), sparse.Cardinality(), dense.Total(), dense.Cardinality())
	}
	if got, want := sparse.NonZero(), dense.NonZero(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NonZero differs: %d bins, dense %d", len(got), len(want))
	}
	for k := 0; k < 1000; k++ {
		i := rng.Intn(n)
		if k < len(hot) {
			i = hot[k]
		}
		if sparse.Count(i) != dense.Count(i) {
			t.Fatalf("Count(%d) = %d, dense %d", i, sparse.Count(i), dense.Count(i))
		}
	}
	if a := testing.AllocsPerRun(2, fill); a != 0 {
		t.Fatalf("a warm refill allocates %.0f times", a)
	}
}

// TestSparseSortsEachWriteOnce: two sparse lanes over 10.3 M bins each take
// 100 000 writes of one to bins drawn at random, as a widedomain lane does,
// and combine on their own, as FoldSketches does. Each lane radix-sorts at
// most the entries it logged, so no combine sorts the combined part again;
// merging one lane into the other and reading the result sorts nothing; and
// the merged region reads as the dense form of the same writes.
func TestSparseSortsEachWriteOnce(t *testing.T) {
	const n, writes = 10_300_000, 100_000
	rng := datagen.NewRNG(17)
	var dense Vector
	dense.Recycle(0, 1, n, Dense)
	lane := func() *Vector {
		v := new(Vector)
		v.Recycle(0, 1, n, Sparse)
		for range writes {
			i := rng.Intn(n)
			v.AddAt(i, 1)
			dense.AddAt(i, 1)
		}
		v.Combine()
		if v.sp.sorted > writes {
			t.Fatalf("a lane of %d writes radix-sorted %d entries", writes, v.sp.sorted)
		}
		return v
	}
	a, b := lane(), lane()
	before := a.sp.sorted
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.NonZero()
	if sorted := a.sp.sorted - before; sorted != 0 {
		t.Fatalf("merging two combined lanes and reading sorted %d entries", sorted)
	}
	if a.Total() != dense.Total() || a.Cardinality() != dense.Cardinality() {
		t.Fatalf("total %d, cardinality %d; dense %d, %d", a.Total(), a.Cardinality(), dense.Total(), dense.Cardinality())
	}
	if want := dense.NonZero(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NonZero differs: %d bins, dense %d", len(got), len(want))
	}
}

// TestSparseMergeOnePass: two sparse lanes over 10.3 M bins each take 100 000
// writes of one at random bins and combine, as widedomain's lanes do, and
// hold wide bins besides: a bin past 2^32 in one lane that the other writes
// once, a bin below zero in the other that the first writes three to, a bin
// wide in both whose sum fits a cell again, and a bin both hold narrow whose
// sum crosses 2^32. Merging them into an empty region reads exactly as the
// dense merge of the same lanes, sorts nothing, leaves both lanes as they
// were, and once warm allocates nothing.
func TestSparseMergeOnePass(t *testing.T) {
	const n, writes = 10_300_000, 100_000
	rng := datagen.NewRNG(23)
	wideA, wideB, both, crossing := rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n)
	lane := func(special map[int]int64) (sparse, dense *Vector) {
		sparse, dense = new(Vector), new(Vector)
		sparse.Recycle(0, 1, n, Sparse)
		dense.Recycle(0, 1, n, Dense)
		for range writes {
			i := rng.Intn(n)
			sparse.AddAt(i, 1)
			dense.AddAt(i, 1)
		}
		for i, c := range special {
			sparse.AddAt(i, c)
			dense.AddAt(i, c)
		}
		sparse.Combine()
		return sparse, dense
	}
	a, da := lane(map[int]int64{wideA: two32 + 5, wideB: 3, both: -5, crossing: two32/2 + 1})
	b, db := lane(map[int]int64{wideA: 1, wideB: -7, both: two32, crossing: two32 / 2})
	if err := da.Merge(db); err != nil {
		t.Fatal(err)
	}
	want := da.NonZero()
	sortedA, sortedB, totalA, totalB := a.sp.sorted, b.sp.sorted, a.Total(), b.Total()

	m := new(Vector)
	merge := func() {
		m.Recycle(0, 1, n, Sparse)
		for _, lane := range []*Vector{a, b} {
			if err := m.Merge(lane); err != nil {
				t.Fatal(err)
			}
		}
	}
	merge()
	if got := m.NonZero(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NonZero differs: %d bins, dense %d", len(got), len(want))
	}
	if m.Total() != da.Total() || m.Cardinality() != da.Cardinality() {
		t.Fatalf("total %d, cardinality %d; dense %d, %d", m.Total(), m.Cardinality(), da.Total(), da.Cardinality())
	}
	for _, i := range []int{wideA, wideB, both, crossing} {
		c := m.Count(i)
		if c != da.Count(i) || (cellOf(m, i) == wideMark) != (uint64(c) >= wideMark) {
			t.Fatalf("bin %d reads %d (cell %d), dense %d", i, c, cellOf(m, i), da.Count(i))
		}
	}
	if len(m.wide) != 3 {
		t.Fatalf("wide map holds %d bins, want 3: %v", len(m.wide), m.wide)
	}
	if m.sp.sorted != 0 || a.sp.sorted != sortedA || b.sp.sorted != sortedB {
		t.Fatalf("merging and reading sorted %d, %d and %d entries", m.sp.sorted, a.sp.sorted-sortedA, b.sp.sorted-sortedB)
	}
	if a.Total() != totalA || b.Total() != totalB || a.Count(wideA) != two32+5 || b.Count(wideB) != -7 {
		t.Fatal("the merge moved a lane")
	}
	if allocs := testing.AllocsPerRun(3, merge); allocs != 0 {
		t.Fatalf("a warm merge allocates %.0f times", allocs)
	}
}

// TestSparseMergeAll: three lanes of random writes merged into a fourth at
// once, their partitions shared by three goroutines, read exactly as the
// dense merge of the same lanes; the merged region then keeps neither the
// lanes nor the chunks its old runs held, and a lane holding a wide bin is
// refused with nothing changed.
func TestSparseMergeAll(t *testing.T) {
	const n, writes = 1 << 22, 20_000
	rng := datagen.NewRNG(31)
	sum := new(Vector)
	sum.Recycle(0, 1, n, Dense)
	lane := func() *Vector {
		v := new(Vector)
		v.Recycle(0, 1, n, Sparse)
		for range writes {
			i := rng.Intn(n)
			v.AddAt(i, 1)
			sum.AddAt(i, 1)
		}
		return v
	}
	m, lanes := lane(), []*Vector{lane(), lane(), lane()}
	if !m.MergeAll(lanes, 3) {
		t.Fatal("MergeAll refused narrow sparse lanes")
	}
	if got, want := m.NonZero(), sum.NonZero(); !reflect.DeepEqual(got, want) {
		t.Fatalf("NonZero differs: %d bins, dense %d", len(got), len(want))
	}
	if m.Total() != sum.Total() || m.Cardinality() != sum.Cardinality() {
		t.Fatalf("total %d, cardinality %d; dense %d, %d", m.Total(), m.Cardinality(), sum.Total(), sum.Cardinality())
	}
	for _, src := range m.sp.srcs[:cap(m.sp.srcs)] {
		if src != nil {
			t.Fatal("the merged region still holds a lane")
		}
	}
	for k := range m.sp.parts {
		if m.sp.parts[k].stale != nil {
			t.Fatalf("partition %d still holds its old run's chunks", k)
		}
	}
	wide := lane()
	wide.AddAt(0, -1)
	total := m.Total()
	if m.MergeAll([]*Vector{lanes[0], wide}, 2) || m.Total() != total {
		t.Fatal("MergeAll took a lane with a wide bin")
	}
}
