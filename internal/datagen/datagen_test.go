package datagen

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestUniformRange(t *testing.T) {
	u := NewUniform(4, 100, 50)
	counts := make(map[int64]int)
	for i := 0; i < 50000; i++ {
		v := u.Next()
		if v < 100 || v >= 150 {
			t.Fatalf("uniform value %d out of [100,150)", v)
		}
		counts[v]++
	}
	if len(counts) != 50 {
		t.Errorf("saw %d distinct values, want 50", len(counts))
	}
	// Chi-squared-ish sanity: each value should be near 1000.
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("value %d count %d implausible for uniform", v, c)
		}
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	// s = 0 must behave like uniform.
	z := NewZipf(5, 0, 100, 0, false)
	counts := make(map[int64]int)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for v, c := range counts {
		if c < n/100-400 || c > n/100+400 {
			t.Errorf("s=0: value %d count %d far from uniform", v, c)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher s must concentrate more mass on the top rank.
	shares := make([]float64, 0, 3)
	for _, s := range []float64{0.35, 0.75, 1.0} {
		z := NewZipf(6, 0, 2048, s, false)
		n := 200000
		top := 0
		for i := 0; i < n; i++ {
			if z.Next() == z.val[0] {
				top++
			}
		}
		shares = append(shares, float64(top)/float64(n))
	}
	if !(shares[0] < shares[1] && shares[1] < shares[2]) {
		t.Errorf("top-rank shares not increasing with skew: %v", shares)
	}
}

func TestZipfTheoreticalShare(t *testing.T) {
	// For s=1, cardinality N, top value share should be ~ 1/H_N.
	const card = 2048
	z := NewZipf(7, 0, card, 1.0, false)
	h := 0.0
	for i := 1; i <= card; i++ {
		h += 1 / float64(i)
	}
	want := 1 / h
	n := 400000
	top := 0
	for i := 0; i < n; i++ {
		if z.Next() == z.val[0] {
			top++
		}
	}
	got := float64(top) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("s=1 top share = %.4f, theoretical %.4f", got, want)
	}
}

func TestZipfShuffleCoversDomain(t *testing.T) {
	z := NewZipf(8, 1000, 64, 0.75, true)
	seen := make(map[int64]bool)
	for i := 0; i < 64; i++ {
		v := z.val[i]
		if v < 1000 || v >= 1064 {
			t.Fatalf("rank value %d outside domain", v)
		}
		if seen[v] {
			t.Fatal("duplicate rank value after shuffle")
		}
		seen[v] = true
	}
}

func TestZipfRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(1, 0, 0, 1, false) },
		func() { NewZipf(1, 0, 10, -1, false) },
		func() { NewUniform(1, 0, 0) },
		func() { NewSequential(0, 0) },
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

func TestSpikedExactMass(t *testing.T) {
	base := NewUniform(9, 0, 1000)
	spikes := []Spike{{Value: 5000, Count: 300}, {Value: 6000, Count: 700}}
	s := NewSpiked(10, base, 10000, spikes)
	vals := Take(s, 10000)
	counts := Counts(vals)
	if counts[5000] != 300 {
		t.Errorf("spike 5000 count = %d, want 300", counts[5000])
	}
	if counts[6000] != 700 {
		t.Errorf("spike 6000 count = %d, want 700", counts[6000])
	}
	var baseMass int64
	for v, c := range counts {
		if v < 1000 {
			baseMass += c
		}
	}
	if baseMass != 9000 {
		t.Errorf("base mass = %d, want 9000", baseMass)
	}
}

func TestSpikedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when spikes exceed stream length")
		}
	}()
	NewSpiked(1, NewUniform(1, 0, 10), 5, []Spike{{Value: 1, Count: 10}})
}

func TestSpikedInterleaving(t *testing.T) {
	// Spikes must be spread through the stream, not clumped at one end.
	base := NewUniform(11, 0, 10)
	s := NewSpiked(12, base, 10000, []Spike{{Value: 99, Count: 1000}})
	firstHalf := 0
	for i := 0; i < 10000; i++ {
		v := s.Next()
		if v == 99 && i < 5000 {
			firstHalf++
		}
	}
	if firstHalf < 300 || firstHalf > 700 {
		t.Errorf("spike occurrences in first half = %d, want ~500", firstHalf)
	}
}

func TestHotspotConcentration(t *testing.T) {
	h := NewHotspot(13, 0, 10_000, 0.8, 0.2)
	n := 100_000
	hot := 0
	hotLimit := int64(2000)
	for i := 0; i < n; i++ {
		v := h.Next()
		if v < 0 || v >= 10_000 {
			t.Fatalf("value %d out of domain", v)
		}
		if v < hotLimit {
			hot++
		}
	}
	// 80% targeted + 20%·20% incidental ≈ 84% in the hot set.
	share := float64(hot) / float64(n)
	if share < 0.80 || share > 0.88 {
		t.Errorf("hot-set share = %.3f, want ≈0.84", share)
	}
}

func TestHotspotRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHotspot(1, 0, 0, 0.8, 0.2) },
		func() { NewHotspot(1, 0, 10, 0, 0.2) },
		func() { NewHotspot(1, 0, 10, 0.8, 1.5) },
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

func TestSequentialWraps(t *testing.T) {
	s := NewSequential(10, 3)
	got := Take(s, 7)
	want := []int64{10, 11, 12, 10, 11, 12, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequential = %v, want %v", got, want)
		}
	}
}

func TestCountsMatchesSort(t *testing.T) {
	f := func(raw []int16) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 50)
		}
		counts := Counts(vals)
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var total int64
		for _, c := range counts {
			total += c
		}
		return total == int64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
