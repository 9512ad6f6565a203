package hist

import (
	"testing"
)

// dominatedColumn builds a column where n heavy values cover almost all
// rows plus a light tail.
func dominatedColumn(heavy int, perHeavy int, tail int) []int64 {
	vals := make([]int64, 0, heavy*perHeavy+tail)
	for v := 0; v < heavy; v++ {
		for c := 0; c < perHeavy; c++ {
			vals = append(vals, int64(v))
		}
	}
	for v := 0; v < tail; v++ {
		vals = append(vals, int64(1000+v))
	}
	return vals
}

// topFrequency is the top-frequency histogram of vals with n entries: the
// exact counts of the n most frequent values plus the residual totals.
func topFrequency(vals []int64, n int) *Histogram {
	v := buildVec(vals)
	nz := v.NonZero()
	return &Histogram{Kind: TopFrequency, Total: v.Total(), DistinctTotal: int64(len(nz)), Frequent: topKOfBins(nz, n)}
}

func TestTopFrequencyEstimates(t *testing.T) {
	vals := dominatedColumn(3, 500, 20) // values 0..2 ×500, 1000..1019 ×1
	h := topFrequency(vals, 3)
	if est := h.EstimateEquals(1); est != 500 {
		t.Errorf("popular estimate = %v, want exact 500", est)
	}
	// Unpopular values share the residual (20 rows over 20 distinct).
	if est := h.EstimateEquals(1005); est != 1 {
		t.Errorf("residual estimate = %v, want 1", est)
	}
	if h.Kind.String() != "top-frequency" {
		t.Errorf("kind name = %q", h.Kind.String())
	}
}

func TestTopFrequencyResidualEmpty(t *testing.T) {
	// Every distinct value listed: residual distinct = 0, estimate 0.
	vals := []int64{1, 1, 2, 2, 3}
	h := topFrequency(vals, 3)
	if est := h.EstimateEquals(99); est != 0 {
		t.Errorf("estimate outside domain = %v", est)
	}
}

func TestTopFrequencySerializationRoundTrip(t *testing.T) {
	vals := dominatedColumn(5, 200, 7)
	h := topFrequency(vals, 5)
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Kind != TopFrequency || len(back.Frequent) != 5 {
		t.Errorf("round trip lost shape: %v", &back)
	}
	if back.EstimateEquals(h.Frequent[0].Value) != float64(h.Frequent[0].Count) {
		t.Error("round-tripped estimates differ")
	}
}

func TestTopFrequencyQuantile(t *testing.T) {
	vals := dominatedColumn(2, 500, 0) // 0×500, 1×500
	h := topFrequency(vals, 2)
	med, err := h.Quantile(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if med != 0 {
		t.Errorf("25th percentile = %d, want 0", med)
	}
	hi, err := h.Quantile(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 {
		t.Errorf("75th percentile = %d, want 1", hi)
	}
}
