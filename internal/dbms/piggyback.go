package dbms

import (
	"sort"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/hist"
)

// Piggyback statistics collection — the software state of the art the paper
// positions itself against (§2, Zhu et al. [37]): while a user query scans
// a table anyway, the CPU additionally aggregates the scanned column and
// refreshes the statistics. Freshness improves, but "the CPU still has to
// process the data and derive the statistics ... their method may slow
// down query processing in favor of more up-to-date statistics."
//
// The accelerator gets the same freshness benefit with the collection work
// moved off the CPU; the Piggyback experiment quantifies the difference.

// PiggybackResult reports one piggybacked scan.
type PiggybackResult struct {
	// Values is the query's actual output (same as FilterEqualsProject).
	Values []int64
	// Histogram is the statistics by-product over the scanned column.
	Histogram *hist.Histogram
	// NDistinct is the observed column cardinality.
	NDistinct int64
	// ScanTime is the measured duration of the combined pass.
	ScanTime time.Duration
}

// FilterEqualsProjectPiggyback runs the same scan as FilterEqualsProject
// but piggybacks full-column statistics collection on it: every visited
// row's eqCol value is aggregated, and an equi-depth histogram (with MCV
// list, i.e. hist.Compressed) is built when the scan finishes. The extra
// work happens on the query's critical path, which is the method's cost.
func FilterEqualsProjectPiggyback(t *Table, eqCol string, eqVal int64, projCol1, projCol2 string, buckets, topK int) *PiggybackResult {
	s := t.Rel.Schema
	ei := s.ColumnIndex(eqCol)
	p1 := s.ColumnIndex(projCol1)
	p2 := s.ColumnIndex(projCol2)
	if ei < 0 || p1 < 0 || p2 < 0 {
		panic("dbms: unknown column in piggyback filter/projection")
	}
	start := time.Now()
	counts := make(map[int64]int64, 1024)
	var out []int64
	n := t.Rel.NumRows()
	for r := 0; r < n; r++ {
		v := t.Rel.Value(r, ei)
		counts[v]++ // the piggybacked aggregation
		if v == eqVal {
			out = append(out, t.Rel.Value(r, p1)*t.Rel.Value(r, p2))
		}
	}
	// Derive the histogram from the aggregate (sort the distinct values,
	// then run the standard construction over the run-length pairs) —
	// still on the query's dime.
	nz := make([]bins.Bin, 0, len(counts))
	for v, c := range counts {
		nz = append(nz, bins.Bin{Value: v, Count: c})
	}
	sort.Slice(nz, func(i, j int) bool { return nz[i].Value < nz[j].Value })
	h := hist.BuildFromBins(nz, hist.Compressed, buckets, topK)
	return &PiggybackResult{
		Values:    out,
		Histogram: h,
		NDistinct: int64(len(counts)),
		ScanTime:  time.Since(start),
	}
}
