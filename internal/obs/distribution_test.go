package obs

import (
	"math"
	"testing"
)

// quantile is the value at q of d's equi-depth histogram, or 0 when d has
// none or q is out of range.
func quantile(d *Distribution, q float64) int64 {
	h := d.Histogram()
	if h == nil {
		return 0
	}
	v, err := h.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// TestDistBinRoundTrip pins the log-linear geometry: every bin's lowest
// representative maps back to that bin, and representatives are strictly
// increasing, so the quantile machinery sees a sorted binned view.
func TestDistBinRoundTrip(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < distNumBins; i++ {
		low := distLow(i)
		if low <= prev {
			t.Fatalf("distLow not strictly increasing at bin %d: %d <= %d", i, low, prev)
		}
		prev = low
		if got := distIndex(low); got != i {
			t.Fatalf("distIndex(distLow(%d)) = %d", i, got)
		}
	}
}

// TestDistIndexErrorBound checks the quantisation contract: a value lands in
// a bin whose representative is no more than 1/subBuckets (6.25%) below it.
func TestDistIndexErrorBound(t *testing.T) {
	for _, v := range []int64{
		0, 1, 15, 31, 32, 33, 100, 1000, 4095, 4096, 65537,
		1 << 20, 1<<20 + 12345, 1 << 40, math.MaxInt64 - 1, math.MaxInt64,
	} {
		i := distIndex(v)
		if i < 0 || i >= distNumBins {
			t.Fatalf("distIndex(%d) = %d out of range", v, i)
		}
		low := distLow(i)
		if low > v {
			t.Fatalf("bin representative %d above value %d", low, v)
		}
		if v >= 2*distSubBuckets {
			if relErr := float64(v-low) / float64(v); relErr > 1.0/distSubBuckets {
				t.Fatalf("value %d binned to %d: relative error %.4f > %.4f",
					v, low, relErr, 1.0/distSubBuckets)
			}
		} else if low != v {
			t.Fatalf("small value %d not recorded exactly (bin low %d)", v, low)
		}
	}
}

func TestDistributionQuantiles(t *testing.T) {
	d := newDistribution("q", 1)
	const n = 100000
	for v := int64(1); v <= n; v++ {
		d.Observe(v)
	}
	if d.Count() != n {
		t.Fatalf("count = %d, want %d", d.Count(), n)
	}
	if d.Sum() != n*(n+1)/2 {
		t.Fatalf("sum = %d, want %d", d.Sum(), int64(n)*(n+1)/2)
	}
	// Uniform 1..n: quantile q should sit near q*n. The log-linear bins
	// quantise at 6.25% and the equi-depth pass adds bucket-width slack, so
	// allow 10% relative error.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := quantile(d, q)
		want := q * n
		if relErr := math.Abs(float64(got)-want) / want; relErr > 0.10 {
			t.Fatalf("Quantile(%.2f) = %d, want ~%.0f (rel err %.3f)", q, got, want, relErr)
		}
	}
}

func TestDistributionNegativeClampsAndEmpty(t *testing.T) {
	d := newDistribution("neg", 1)
	if d.Histogram() != nil {
		t.Fatal("empty distribution produced a histogram")
	}
	if quantile(d, 0.5) != 0 {
		t.Fatal("empty distribution produced a quantile")
	}
	d.Observe(-50)
	if d.Count() != 1 || d.Sum() != 0 {
		t.Fatalf("negative observation: count=%d sum=%d, want 1/0", d.Count(), d.Sum())
	}
	if got := quantile(d, 0.5); got != 0 {
		t.Fatalf("clamped observation quantile = %d, want 0", got)
	}
}

// TestDistributionSingleSample: one observation is the smallest population a
// scrape can see mid-flight. Every quantile must come back finite — the
// observed value up to bin quantisation, never 0-by-accident, NaN, or a
// panic — and count/sum must reflect the one sample.
func TestDistributionSingleSample(t *testing.T) {
	d := newDistribution("one", 1)
	const v = 1000
	d.Observe(v)
	if d.Count() != 1 || d.Sum() != v {
		t.Fatalf("count=%d sum=%d, want 1/%d", d.Count(), d.Sum(), v)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got := quantile(d, q)
		if got <= 0 || got > v {
			t.Fatalf("Quantile(%.2f) = %d with one sample of %d", q, got, v)
		}
		// Log-linear bins quantise at 6.25%: the answer is the sample's bin.
		if float64(v-got)/v > 0.0625 {
			t.Fatalf("Quantile(%.2f) = %d, more than one bin below the sample %d", q, got, v)
		}
	}
	// Out-of-range q must degrade to a harmless value, not panic.
	for _, q := range []float64{-0.5, 1.5} {
		if got := quantile(d, q); got < 0 || got > v {
			t.Fatalf("Quantile(%v) = %d, want clamped into [0, %d]", q, got, v)
		}
	}
}

// TestDistributionSkewedQuantiles feeds a bimodal latency shape (fast bulk,
// slow tail) and checks the tail quantile lands in the slow mode — the whole
// point of backing /metrics with the streaming histogram.
func TestDistributionSkewedQuantiles(t *testing.T) {
	d := newDistribution("skew", 1)
	for i := 0; i < 9800; i++ {
		d.Observe(1000) // 1µs bulk
	}
	for i := 0; i < 200; i++ {
		d.Observe(5000000) // 5ms tail
	}
	p50 := quantile(d, 0.5)
	p99 := quantile(d, 0.99)
	if p50 > 1100 {
		t.Fatalf("p50 = %d, want ~1000", p50)
	}
	if p99 < 900000 {
		t.Fatalf("p99 = %d, want to land in the slow mode", p99)
	}
}
