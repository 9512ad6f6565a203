// Package dbms implements the software database substrate the paper
// compares the accelerator against: heap storage with a disk/memory model,
// a sampling analyzer in the style of the commercial systems ("DBx", "DBy")
// and PostgreSQL, a statistics catalog, a cost-based join planner, and a
// real executor for the paper's Q1 workload.
//
// Two timing views coexist deliberately:
//
//   - Real work: Analyze, CreateIndex and the executor genuinely run
//     (sample, sort, bucket, join) on in-memory relations, so functional
//     results and measured Go wall-clock are real.
//   - Modelled seconds: cost functions (costmodel.go) convert operation
//     counts into seconds for a calibrated "commercial DBMS on the paper's
//     hardware" personality, which is how the harness reproduces the
//     paper-scale (30–450 M row) curves without materialising 30 GB tables.
package dbms

import (
	"streamhist/internal/page"
	"streamhist/internal/table"
)

// Medium says where a table resides; the paper's Fig 2 measures both.
type Medium int

const (
	// InMemory tables pay only memory bandwidth for scans.
	InMemory Medium = iota
	// OnDisk tables pay disk bandwidth for every page touched.
	OnDisk
)

// String names the medium.
func (m Medium) String() string {
	if m == OnDisk {
		return "disk"
	}
	return "memory"
}

// StorageParams models the host machine's I/O capabilities (the Maxeler
// workstation of §6: quad-core i7, 32 GB RAM, SATA disk).
type StorageParams struct {
	// DiskBytesPerSec is sequential disk scan bandwidth.
	DiskBytesPerSec float64
	// MemBytesPerSec is effective in-memory tuple-at-a-time scan bandwidth
	// (well below raw DRAM bandwidth: page iteration and tuple decoding
	// dominate).
	MemBytesPerSec float64
	// DiskSeekSec is the fixed cost of starting a disk scan.
	DiskSeekSec float64
}

// DefaultStorage returns a 2011-era workstation model.
func DefaultStorage() StorageParams {
	return StorageParams{
		DiskBytesPerSec: 120e6,
		MemBytesPerSec:  2.4e9,
		DiskSeekSec:     0.008,
	}
}

// ScanSeconds returns the modelled time to stream `bytes` from the medium.
func (s StorageParams) ScanSeconds(m Medium, bytes float64) float64 {
	if m == OnDisk {
		return s.DiskSeekSec + bytes/s.DiskBytesPerSec
	}
	return bytes / s.MemBytesPerSec
}

// Table couples a relation with its storage representation and any indexes.
type Table struct {
	Rel    *table.Relation
	Medium Medium

	indexes map[string]*Index
}

// NewTable wraps a relation.
func NewTable(rel *table.Relation, medium Medium) *Table {
	return &Table{Rel: rel, Medium: medium, indexes: make(map[string]*Index)}
}

// NumPages returns how many pages the table occupies.
func (t *Table) NumPages() int {
	rw := t.Rel.Schema.RowWidth()
	perPage := (page.Size - page.HeaderSize) / rw
	n := t.Rel.NumRows()
	return (n + perPage - 1) / perPage
}

// Index returns the named column's index, or nil.
func (t *Table) Index(column string) *Index { return t.indexes[column] }
