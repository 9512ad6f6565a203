package hist

// Selectivity estimation over histograms: the query-optimizer-facing side.
// All estimators assume uniform distribution within a bucket (the standard
// assumption; §3 of the paper describes it as "the height of the rectangle
// corresponds to the estimated count of each value within the respective
// bucket").

// EstimateEquals estimates the number of rows whose column equals value.
func (h *Histogram) EstimateEquals(value int64) float64 {
	// Exact frequent values (Compressed and TopFrequency histograms) take
	// precedence.
	for _, f := range h.Frequent {
		if f.Value == value {
			return float64(f.Count)
		}
	}
	if h.Kind == TopFrequency {
		// No buckets exist: unlisted values share the residual mass
		// uniformly (Oracle's non-popular-value density).
		rows, distinct := h.residual()
		if distinct <= 0 {
			return 0
		}
		return float64(rows) / float64(distinct)
	}
	b := h.findBucket(value)
	if b == nil || b.Distinct == 0 {
		return 0
	}
	return float64(b.Count) / float64(b.Distinct)
}

// EstimateRange estimates the number of rows with lo <= column <= hi.
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	est := 0.0
	for _, f := range h.Frequent {
		if f.Value >= lo && f.Value <= hi {
			est += float64(f.Count)
		}
	}
	for i := range h.Buckets {
		b := &h.Buckets[i]
		if b.High < lo || b.Low > hi {
			continue
		}
		if b.Low >= lo && b.High <= hi {
			est += float64(b.Count)
			continue
		}
		// Partial overlap: pro-rate by value-range coverage.
		span := float64(b.High-b.Low) + 1
		ovLo, ovHi := b.Low, b.High
		if lo > ovLo {
			ovLo = lo
		}
		if hi < ovHi {
			ovHi = hi
		}
		overlap := float64(ovHi-ovLo) + 1
		est += float64(b.Count) * overlap / span
	}
	return est
}

// EstimateLess estimates the number of rows with column < value.
func (h *Histogram) EstimateLess(value int64) float64 {
	min, ok := h.MinValue()
	if !ok {
		return 0
	}
	return h.EstimateRange(min, value-1)
}

// MinValue returns the smallest value the histogram covers.
func (h *Histogram) MinValue() (int64, bool) {
	has := false
	var min int64
	if len(h.Buckets) > 0 {
		min = h.Buckets[0].Low
		has = true
	}
	for _, f := range h.Frequent {
		if !has || f.Value < min {
			min = f.Value
			has = true
		}
	}
	return min, has
}

// findBucket locates the bucket whose [Low, High] range contains value, or
// nil. Buckets are in ascending value order, so binary search applies.
func (h *Histogram) findBucket(value int64) *Bucket {
	lo, hi := 0, len(h.Buckets)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		b := &h.Buckets[mid]
		switch {
		case value < b.Low:
			hi = mid - 1
		case value > b.High:
			lo = mid + 1
		default:
			return b
		}
	}
	return nil
}
