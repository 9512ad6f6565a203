package dbms

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"streamhist/internal/hist"
	"streamhist/internal/sketch"
)

// ColumnStats is one catalog entry: the optimizer-visible statistics of a
// column at the time they were last gathered.
type ColumnStats struct {
	Histogram *hist.Histogram
	// Sketches are the statistic blocks the same scan refreshed beside the
	// histogram (internal/sketch): HLL NDV, heavy hitters, sliding-window
	// aggregate. Nil when the serving side ran without a sketch chain.
	Sketches sketch.Blocks
	// NDistinct is the exact distinct count of the gathered binned view.
	NDistinct int64
	// RowCount is the table cardinality when the stats were gathered.
	RowCount int64
	// Version is the table's modification counter at gather time; when it
	// trails the table's current version the stats are stale.
	Version uint64

	// enc is the entry's one encoded form (see Encoded), never written
	// again once installed.
	enc []byte
}

// Encoded returns the entry's AppendColumnStats bytes, Version included, as
// Put made them (or DecodeColumnStats kept them): the WAL, the checkpoint
// and the Stats reply carry them as they are. It is nil for an entry no
// catalog installed, or one that failed to encode. Do not modify them.
func (s *ColumnStats) Encoded() []byte { return s.enc }

// Catalog is the statistics dictionary. The paper's motivating problem is
// that entries here go stale: "statistics gathering needs to be explicitly
// triggered in databases", so after a bulk update the planner keeps working
// from outdated histograms until someone re-runs ANALYZE.
type Catalog struct {
	mu       sync.RWMutex
	stats    map[string]map[string]*ColumnStats
	versions map[string]uint64
	journal  CatalogJournal
}

// CatalogJournal observes catalog mutations for write-ahead durability. The
// catalog invokes it while holding its write lock, so the journal sees
// mutations in exactly apply order; implementations must therefore return
// quickly and must never call back into the catalog.
type CatalogJournal interface {
	// JournalPut records a full replacement of one column's statistics
	// (s.Version already stamped with the table's current version).
	JournalPut(table, column string, s *ColumnStats)
	// JournalBump records a table-version bump; version is the new
	// absolute counter value, so replay is idempotent.
	JournalBump(table string, version uint64)
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
func (c *Catalog) SetJournal(j CatalogJournal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		stats:    make(map[string]map[string]*ColumnStats),
		versions: make(map[string]uint64),
	}
}

// BumpVersion records a modification of the table (insert/update), making
// existing statistics stale.
func (c *Catalog) BumpVersion(tableName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[tableName]++
	if c.journal != nil {
		c.journal.JournalBump(tableName, c.versions[tableName])
	}
}

// Version returns the table's modification counter.
func (c *Catalog) Version(tableName string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions[tableName]
}

// Put installs fresh statistics for a column. It encodes s once, outside
// the lock, into a buffer of its own, and under the lock stamps the table's
// version into s and those bytes, so s may be a shallow copy of an
// installed entry. An installed entry is never changed: Put a new one.
func (c *Catalog) Put(tableName, column string, s *ColumnStats) {
	// An entry that does not encode is installed without bytes (nil on
	// error): the journal drops it, Stats and checkpoints refuse it.
	enc, _ := AppendColumnStats(nil, s)
	c.mu.Lock()
	defer c.mu.Unlock()
	cols, ok := c.stats[tableName]
	if !ok {
		cols = make(map[string]*ColumnStats)
		c.stats[tableName] = cols
	}
	s.Version = c.versions[tableName]
	if enc != nil {
		binary.LittleEndian.PutUint64(enc[entryVersionOffset:], s.Version)
	}
	s.enc = enc
	cols[column] = s
	if c.journal != nil {
		c.journal.JournalPut(tableName, column, s)
	}
}

// RestorePut installs a recovered entry (one DecodeColumnStats returned)
// exactly as journaled: unlike Put it preserves the entry's recorded
// Version (rather than stamping the current table version), never notifies
// the journal, and raises the table's version floor so Stale stays
// consistent after replay.
func (c *Catalog) RestorePut(tableName, column string, s *ColumnStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cols, ok := c.stats[tableName]
	if !ok {
		cols = make(map[string]*ColumnStats)
		c.stats[tableName] = cols
	}
	cols[column] = s
	if s.Version > c.versions[tableName] {
		c.versions[tableName] = s.Version
	}
}

// RestoreVersion forces a table's modification counter to an absolute value
// (WAL replay of a bump record) without notifying the journal.
func (c *Catalog) RestoreVersion(tableName string, v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[tableName] = v
}

// Get returns the statistics for a column, or nil when none were gathered.
func (c *Catalog) Get(tableName, column string) *ColumnStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cols, ok := c.stats[tableName]
	if !ok {
		return nil
	}
	return cols[column]
}

// Each reads the catalog under one read lock: at first (when not nil), then
// put for every entry in (table, column) order, then bump for every table
// version in table order. A journal numbers mutations under the write lock,
// so a watermark it reads in at counts exactly the mutations the calls that
// follow show. The callbacks must not call back into the catalog.
func (c *Catalog) Each(at func(), put func(table, column string, s *ColumnStats), bump func(table string, version uint64)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if at != nil {
		at()
	}
	for _, tbl := range sortedKeys(c.stats) {
		cols := c.stats[tbl]
		for _, col := range sortedKeys(cols) {
			put(tbl, col, cols[col])
		}
	}
	for _, tbl := range sortedKeys(c.versions) {
		bump(tbl, c.versions[tbl])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stale reports whether the column's statistics trail the table's current
// version (or are missing entirely).
func (c *Catalog) Stale(tableName, column string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cols, ok := c.stats[tableName]
	if !ok {
		return true
	}
	s, ok := cols[column]
	if !ok {
		return true
	}
	return s.Version < c.versions[tableName]
}

// StatsColumns returns the sorted names of tableName's columns that
// currently have catalog entries — i.e. the columns something (an ANALYZE
// or a served scan) has gathered statistics for.
func (c *Catalog) StatsColumns(tableName string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cols, ok := c.stats[tableName]
	if !ok || len(cols) == 0 {
		return nil
	}
	return sortedKeys(cols)
}

// EstimateEquals estimates the rows of tableName with column == v, falling
// back to a default guess when no statistics exist (commercial engines
// default to small constants, which is what produces the bad plans of §2).
func (c *Catalog) EstimateEquals(tableName, column string, v int64) float64 {
	s := c.Get(tableName, column)
	if s == nil || s.Histogram == nil {
		return 1
	}
	return s.Histogram.EstimateEquals(v)
}

// EstimateLess estimates rows with column < v.
func (c *Catalog) EstimateLess(tableName, column string, v int64) float64 {
	s := c.Get(tableName, column)
	if s == nil || s.Histogram == nil {
		return 1
	}
	return s.Histogram.EstimateLess(v)
}

// Describe renders a short summary of a column's catalog entry.
func (c *Catalog) Describe(tableName, column string) string {
	s := c.Get(tableName, column)
	if s == nil {
		return fmt.Sprintf("%s.%s: no statistics", tableName, column)
	}
	fresh := "fresh"
	if c.Stale(tableName, column) {
		fresh = "STALE"
	}
	return fmt.Sprintf("%s.%s: %v rows=%d ndistinct=%d (%s)",
		tableName, column, s.Histogram, s.RowCount, s.NDistinct, fresh)
}
