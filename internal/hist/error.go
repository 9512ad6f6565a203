package hist

import (
	"math"

	"streamhist/internal/bins"
	"streamhist/internal/datagen"
)

// Accuracy metrics for comparing histograms against ground truth (the full
// binned view). These back the paper's §6.2 claim that full-data histograms
// are "the same, or more accurate" than sample-built ones.

// PointError reports the mean absolute selectivity error of point (equality)
// estimates, averaged over every distinct value present in the ground truth.
// The error per value is |estimate - actual| / total.
func PointError(h *Histogram, truth *bins.Vector) float64 {
	nz := truth.NonZero()
	if len(nz) == 0 || truth.Total() == 0 {
		return 0
	}
	total := float64(truth.Total())
	sum := 0.0
	for _, b := range nz {
		est := h.EstimateEquals(b.Value)
		sum += math.Abs(est-float64(b.Count)) / total
	}
	return sum / float64(len(nz))
}

// RangeError reports the mean absolute selectivity error over n random range
// predicates drawn with the seeded generator (deterministic for a given
// seed). Ranges span the truth's value domain.
func RangeError(h *Histogram, truth *bins.Vector, n int, seed uint64) float64 {
	nz := truth.NonZero()
	if len(nz) == 0 || truth.Total() == 0 || n <= 0 {
		return 0
	}
	lo := nz[0].Value
	hi := nz[len(nz)-1].Value
	span := hi - lo + 1
	rng := datagen.NewRNG(seed)

	// Prefix sums over the dense vector give exact range counts quickly.
	numBins := truth.NumBins()
	prefix := make([]int64, numBins+1)
	for i := 0; i < numBins; i++ {
		prefix[i+1] = prefix[i] + truth.Count(i)
	}
	exact := func(a, b int64) int64 {
		ia := truth.Index(a)
		ib := truth.Index(b)
		if ia < 0 {
			ia = 0
		}
		if ib < 0 {
			ib = numBins - 1
		}
		return prefix[ib+1] - prefix[ia]
	}

	total := float64(truth.Total())
	sum := 0.0
	for i := 0; i < n; i++ {
		a := lo + rng.Int63n(span)
		b := lo + rng.Int63n(span)
		if a > b {
			a, b = b, a
		}
		est := h.EstimateRange(a, b)
		sum += math.Abs(est-float64(exact(a, b))) / total
	}
	return sum / float64(n)
}

// MaxPointError reports the worst-case absolute selectivity error of point
// estimates over the distinct values of the ground truth.
func MaxPointError(h *Histogram, truth *bins.Vector) float64 {
	nz := truth.NonZero()
	if len(nz) == 0 || truth.Total() == 0 {
		return 0
	}
	total := float64(truth.Total())
	worst := 0.0
	for _, b := range nz {
		e := math.Abs(h.EstimateEquals(b.Value)-float64(b.Count)) / total
		if e > worst {
			worst = e
		}
	}
	return worst
}
