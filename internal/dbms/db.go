package dbms

import (
	"fmt"

	"streamhist/internal/hist"
	"streamhist/internal/table"
)

// Database ties tables, the statistics catalog and the analyzer together —
// just enough engine to reproduce the paper's query-planning experiments.
type Database struct {
	Tables   map[string]*Table
	Catalog  *Catalog
	Analyzer *Analyzer
	Costs    PlannerCosts
}

// NewDatabase returns an empty database with the given engine personality.
func NewDatabase(p Personality) *Database {
	return &Database{
		Tables:   make(map[string]*Table),
		Catalog:  NewCatalog(),
		Analyzer: NewAnalyzer(p),
		Costs:    DefaultPlannerCosts(),
	}
}

// AddTable registers a relation (in memory by default).
func (db *Database) AddTable(rel *table.Relation) *Table {
	t := NewTable(rel, InMemory)
	db.Tables[rel.Name] = t
	return t
}

// Table returns a registered table; it panics on unknown names (programmer
// error in this codebase).
func (db *Database) Table(name string) *Table {
	t, ok := db.Tables[name]
	if !ok {
		panic(fmt.Sprintf("dbms: unknown table %q", name))
	}
	return t
}

// GatherStats runs ANALYZE on a column and installs the result in the
// catalog — the explicit trigger the paper's §2 points out is required in
// commercial systems.
func (db *Database) GatherStats(tableName, column string, samplePct float64, seed uint64) (*AnalyzeResult, error) {
	t := db.Table(tableName)
	// Commercial engines pair the bucket histogram with an exact
	// most-common-values list; the Compressed kind models that.
	res, err := db.Analyzer.Analyze(t, AnalyzeOptions{
		Column:    column,
		SamplePct: samplePct,
		Kind:      hist.Compressed,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	db.Catalog.Put(tableName, column, &ColumnStats{
		Histogram: res.Histogram,
		NDistinct: res.NDistinct,
		RowCount:  int64(t.Rel.NumRows()),
	})
	return res, nil
}

// InstallStats puts an externally produced histogram (e.g. the
// accelerator's) into the catalog — the integration point of the whole
// paper: histograms arriving as a side effect of table scans keep the
// catalog fresh without an ANALYZE.
func (db *Database) InstallStats(tableName, column string, h *hist.Histogram, ndistinct int64) {
	t := db.Table(tableName)
	db.Catalog.Put(tableName, column, &ColumnStats{
		Histogram: h,
		NDistinct: ndistinct,
		RowCount:  int64(t.Rel.NumRows()),
	})
}

// MutateColumn applies an in-place update to a table column and bumps the
// table version so existing statistics become stale.
func (db *Database) MutateColumn(tableName string, mutate func(rel *table.Relation)) {
	t := db.Table(tableName)
	mutate(t.Rel)
	db.Catalog.BumpVersion(tableName)
}
