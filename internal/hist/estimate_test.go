package hist

import (
	"math"
	"testing"

	"streamhist/internal/datagen"
)

func TestEstimateEqualsUniform(t *testing.T) {
	// 100 values × 10 occurrences: every point estimate should be exact.
	vals := make([]int64, 0, 1000)
	for v := int64(0); v < 100; v++ {
		for c := 0; c < 10; c++ {
			vals = append(vals, v)
		}
	}
	h := BuildEquiDepth(buildVec(vals), 10)
	for v := int64(0); v < 100; v++ {
		if est := h.EstimateEquals(v); math.Abs(est-10) > 1e-9 {
			t.Errorf("EstimateEquals(%d) = %v, want 10", v, est)
		}
	}
	if est := h.EstimateEquals(5000); est != 0 {
		t.Errorf("estimate outside domain = %v", est)
	}
}

func TestEstimateEqualsFrequentTakesPrecedence(t *testing.T) {
	vals := make([]int64, 0)
	for i := 0; i < 900; i++ {
		vals = append(vals, 42)
	}
	for v := int64(0); v < 30; v++ {
		vals = append(vals, v)
	}
	h := BuildCompressed(buildVec(vals), 1, 4)
	if est := h.EstimateEquals(42); est != 900 {
		t.Errorf("frequent estimate = %v, want exact 900", est)
	}
}

func TestEstimateRangeFullDomain(t *testing.T) {
	vals := zipfValues(5000, 100, 0.75, 21)
	h := BuildEquiDepth(buildVec(vals), 16)
	if est := h.EstimateRange(-1000, 1000); math.Abs(est-5000) > 1 {
		t.Errorf("full-domain range = %v, want 5000", est)
	}
	if est := h.EstimateRange(10, 5); est != 0 {
		t.Errorf("inverted range = %v", est)
	}
}

func TestEstimateRangeMonotone(t *testing.T) {
	vals := zipfValues(5000, 200, 0.5, 22)
	h := BuildEquiDepth(buildVec(vals), 16)
	prev := 0.0
	for hi := int64(0); hi < 200; hi += 5 {
		est := h.EstimateRange(0, hi)
		if est+1e-9 < prev {
			t.Fatalf("range estimate decreased at hi=%d: %v < %v", hi, est, prev)
		}
		prev = est
	}
}

func TestEstimateRangePartialBucket(t *testing.T) {
	// One bucket spanning values 0..9 with 100 rows; half the range ≈ 50.
	vals := make([]int64, 0, 100)
	for v := int64(0); v < 10; v++ {
		for c := 0; c < 10; c++ {
			vals = append(vals, v)
		}
	}
	h := BuildEquiDepth(buildVec(vals), 1)
	est := h.EstimateRange(0, 4)
	if math.Abs(est-50) > 1e-9 {
		t.Errorf("half-range estimate = %v, want 50", est)
	}
}

func TestEstimateLess(t *testing.T) {
	vals := make([]int64, 0, 100)
	for v := int64(0); v < 100; v++ {
		vals = append(vals, v)
	}
	h := BuildEquiDepth(buildVec(vals), 10)
	if est := h.EstimateLess(0); est != 0 {
		t.Errorf("EstimateLess(min) = %v", est)
	}
	if est := h.EstimateLess(100); math.Abs(est-100) > 1 {
		t.Errorf("EstimateLess(max+1) = %v, want ~100", est)
	}
	if est := h.EstimateLess(50); math.Abs(est-50) > 6 {
		t.Errorf("EstimateLess(50) = %v, want ~50", est)
	}
}

func TestMinValue(t *testing.T) {
	vals := []int64{5, 9, 12, 40}
	h := BuildEquiDepth(buildVec(vals), 2)
	min, ok := h.MinValue()
	if !ok || min != 5 {
		t.Errorf("MinValue = %d, %v", min, ok)
	}
	var empty Histogram
	if _, ok := empty.MinValue(); ok {
		t.Error("empty histogram should have no min")
	}
	// Compressed: a frequent value below the bucket range must win.
	vals2 := make([]int64, 0)
	for i := 0; i < 100; i++ {
		vals2 = append(vals2, -1000)
	}
	vals2 = append(vals2, 1, 2, 3)
	hc := BuildCompressed(buildVec(vals2), 1, 2)
	if len(hc.Frequent) != 1 || hc.Frequent[0].Value != -1000 || hc.Buckets[0].Low == -1000 {
		t.Fatalf("fixture: want -1000 in the frequent list only, got %v", hc)
	}
	if min2, _ := hc.MinValue(); min2 != -1000 {
		t.Errorf("compressed MinValue = %d, want -1000 (from frequent list)", min2)
	}
}

func TestFindBucketBinarySearchAgreesWithLinear(t *testing.T) {
	vals := zipfValues(3000, 500, 0.9, 23)
	h := BuildEquiDepth(buildVec(vals), 32)
	for v := int64(-10); v < 520; v += 3 {
		got := h.findBucket(v)
		var want *Bucket
		for i := range h.Buckets {
			if v >= h.Buckets[i].Low && v <= h.Buckets[i].High {
				want = &h.Buckets[i]
				break
			}
		}
		if got != want {
			t.Fatalf("findBucket(%d) mismatch", v)
		}
	}
}

func TestEstimationAccuracyFullBeatsSampled(t *testing.T) {
	// The §6.2 claim: a histogram from the complete data is at least as
	// accurate as one built from a small sample. Deterministic seeds.
	gen := datagen.NewZipf(31, 0, 2000, 0.9, true)
	vals := datagen.Take(gen, 60000)
	truth := buildVec(vals)
	full := BuildEquiDepth(truth, 64)

	rng := datagen.NewRNG(32)
	sample := make([]int64, 0, len(vals)/20)
	for _, v := range vals {
		if rng.Intn(20) == 0 { // 5% sample
			sample = append(sample, v)
		}
	}
	sorted := append([]int64(nil), sample...)
	sortInt64s(sorted)
	sampled := BuildFromSorted(sorted, EquiDepth, 64, 0).Scale(float64(len(vals)) / float64(len(sorted)))

	fullErr := PointError(full, truth)
	sampledErr := PointError(sampled, truth)
	if fullErr > sampledErr {
		t.Errorf("full-data error %v worse than sampled %v", fullErr, sampledErr)
	}
}
