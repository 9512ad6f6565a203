package hist

// TopFrequency is the Oracle-style "TopK representation on the data" that
// §6.3 lists among the statistics commercial engines gather: when a small
// number of distinct values dominates the column, the engine stores only
// their exact frequencies plus aggregate residual information — no buckets
// at all.
const TopFrequency Kind = VOptimal + 1

// topFrequencyName extends Kind.String (kept here, next to the kind).
func topFrequencyName(k Kind) (string, bool) {
	if k == TopFrequency {
		return "top-frequency", true
	}
	return "", false
}

// residual returns the row and distinct counts not covered by the frequent
// list.
func (h *Histogram) residual() (rows, distinct int64) {
	rows = h.Total
	for _, f := range h.Frequent {
		rows -= f.Count
	}
	distinct = h.DistinctTotal - int64(len(h.Frequent))
	return rows, distinct
}
