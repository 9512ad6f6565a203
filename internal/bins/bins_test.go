package bins

import (
	"math"
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

// TestRegionIsWholeHostLines: a lane's vector and arrays fill whole host
// cache lines, so two lanes' regions never share one.
func TestRegionIsWholeHostLines(t *testing.T) {
	if s := unsafe.Sizeof(Vector{}); s%hostLine != 0 {
		t.Fatalf("a Vector is %d bytes, not whole %d-byte lines", s, hostLine)
	}
	for _, n := range []int{1, 50, 64, 65, 1000} {
		v := new(Vector)
		v.Recycle(0, 1, n, Dense, nil)
		if b := cap(v.counts) * 4; b%hostLine != 0 {
			t.Fatalf("%d bins: counts take %d bytes", n, b)
		}
		if b := cap(v.occ) * 8; b%hostLine != 0 {
			t.Fatalf("%d bins: occupancy index takes %d bytes", n, b)
		}
	}
}
