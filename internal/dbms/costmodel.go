package dbms

import "math"

// Personality captures how a particular commercial engine spends time while
// gathering statistics. Two presets, DBx and DBy, are calibrated so that
// the modelled curves reproduce the qualitative behaviour the paper
// measured on the two (anonymised) commercial databases:
//
//   - DBx samples at the row level and its analyze time tracks the sampling
//     rate, but fixed-point (DECIMAL) columns and high-cardinality sorts
//     make it slower (Fig 19);
//   - DBy samples pages but always performs a full pre-pass over the table,
//     so "the runtime does not decrease proportionally with the decrease in
//     sampling rate" (Fig 16).
//
// All per-item costs are nanoseconds on the paper's host.
type Personality struct {
	Name string

	// ExtractNs is the cost to visit a row and pull the column value
	// during the sampling scan.
	ExtractNs float64
	// SkipNs is the cost of passing over a row the sampler rejected
	// (row-sampling engines only; far cheaper than extraction).
	SkipNs float64
	// CompareNs is the per-comparison sort cost (n log2 n comparisons).
	CompareNs float64
	// HashAggNs is the per-row cost of the hash-aggregation fast path used
	// for low-cardinality columns.
	HashAggNs float64
	// BucketNs is the per-sorted-value cost of the bucket-building pass.
	BucketNs float64
	// IndexEntryNs is the per-entry cost when reading an existing sorted
	// index instead of sorting (DBx's Fig 18 path).
	IndexEntryNs float64
	// DecimalMult multiplies Extract/Compare/HashAgg costs for fixed-point
	// columns.
	DecimalMult float64
	// FixedSec is a fixed per-ANALYZE overhead (catalog transactions,
	// dictionary updates).
	FixedSec float64

	// HashAggCardinality is the distinct-count threshold below which the
	// engine uses hash aggregation instead of sorting.
	HashAggCardinality int

	// PageSampling is true when sampling skips whole pages (DBy,
	// PostgreSQL) rather than rows within scanned pages (DBx).
	PageSampling bool
	// FullPrescan is true when the engine always performs one full pass
	// over the table regardless of the sampling rate (DBy's behaviour in
	// Fig 16).
	FullPrescan bool
}

// DBx returns the row-sampling personality.
func DBx() Personality {
	return Personality{
		Name:               "DBx",
		ExtractNs:          300,
		SkipNs:             60,
		CompareNs:          28,
		HashAggNs:          250,
		BucketNs:           12,
		IndexEntryNs:       45,
		DecimalMult:        1.9,
		FixedSec:           0.5,
		HashAggCardinality: 4096,
		PageSampling:       false,
		FullPrescan:        false,
	}
}

// DBy returns the page-sampling, full-prescan personality.
func DBy() Personality {
	return Personality{
		Name:               "DBy",
		ExtractNs:          210,
		SkipNs:             35,
		CompareNs:          34,
		HashAggNs:          70,
		BucketNs:           14,
		IndexEntryNs:       60,
		DecimalMult:        1.6,
		FixedSec:           1.0,
		HashAggCardinality: 1024,
		PageSampling:       true,
		FullPrescan:        true,
	}
}

// Postgres returns a PostgreSQL-flavoured personality (page sampling, no
// prescan, modest constants); used in the Fig 21 experiment.
func Postgres() Personality {
	return Personality{
		Name:               "PostgreSQL",
		ExtractNs:          120,
		SkipNs:             20,
		CompareNs:          22,
		HashAggNs:          45,
		BucketNs:           10,
		IndexEntryNs:       40,
		DecimalMult:        1.5,
		FixedSec:           0.2,
		HashAggCardinality: 0, // always sorts its sample
		PageSampling:       true,
		FullPrescan:        false,
	}
}

// AnalyzeCostInput describes one ANALYZE invocation for the pure cost
// functions, independent of any materialised data.
type AnalyzeCostInput struct {
	Rows      float64
	RowWidth  float64 // bytes
	SamplePct float64 // 0 < pct <= 100
	NDistinct float64 // (estimated) column cardinality
	Decimal   bool    // fixed-point column
	Medium    Medium
	UseIndex  bool // analyze an existing sorted index (DBx only path)
}

// EstimateAnalyzeSeconds returns the modelled duration of ANALYZE under the
// personality and storage model. This is the paper-scale cost function the
// experiment harness evaluates at 30–450 M rows.
func EstimateAnalyzeSeconds(p Personality, st StorageParams, in AnalyzeCostInput) float64 {
	if in.SamplePct <= 0 {
		in.SamplePct = 100
	}
	frac := in.SamplePct / 100
	sampled := in.Rows * frac
	if sampled < 1 {
		sampled = 1
	}
	mult := 1.0
	if in.Decimal {
		mult = p.DecimalMult
	}

	sec := p.FixedSec

	if in.UseIndex {
		// The index is a sorted projection of the column: no base-table
		// scan, no sort, width-independent. Only the sampled entries are
		// walked, then buckets are built.
		entryBytes := 16.0 // key + rowid
		sec += st.ScanSeconds(in.Medium, sampled*entryBytes)
		sec += sampled * p.IndexEntryNs * 1e-9
		sec += sampled * p.BucketNs * 1e-9
		return sec
	}

	// I/O + extraction. Row-sampling engines touch every row but pay only
	// a cheap skip for rejected rows; page-sampling engines touch only the
	// chosen pages.
	scanBytes := in.Rows * in.RowWidth
	extracted := sampled
	skipped := in.Rows - sampled
	if p.PageSampling {
		scanBytes *= frac
		extracted = sampled
		skipped = 0
	}
	if p.FullPrescan {
		// DBy walks the whole table once regardless of sampling.
		sec += st.ScanSeconds(in.Medium, in.Rows*in.RowWidth)
		sec += in.Rows * p.ExtractNs * mult * 1e-9
		if p.PageSampling {
			// the sampled pages were already touched by the prescan
			scanBytes = 0
			extracted = 0
		}
	}
	sec += st.ScanSeconds(in.Medium, scanBytes)
	sec += extracted * p.ExtractNs * mult * 1e-9
	sec += skipped * p.SkipNs * 1e-9

	// Aggregation: hash fast path for low cardinality, sort otherwise.
	if p.HashAggCardinality > 0 && in.NDistinct > 0 && in.NDistinct <= float64(p.HashAggCardinality) {
		sec += sampled * p.HashAggNs * mult * 1e-9
		sec += in.NDistinct * p.BucketNs * 1e-9
	} else {
		sec += sampled * math.Log2(math.Max(sampled, 2)) * p.CompareNs * mult * 1e-9
		sec += sampled * p.BucketNs * 1e-9
	}
	return sec
}

// EstimateTableScanSeconds models a plain full scan answering a trivial
// query (the "Table scan" bar of Fig 2): stream the pages, visit each row.
func EstimateTableScanSeconds(p Personality, st StorageParams, rows, rowWidth float64, m Medium) float64 {
	const visitNs = 35 // predicate-free row visit
	return st.ScanSeconds(m, rows*rowWidth) + rows*visitNs*1e-9
}
