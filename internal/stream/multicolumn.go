package stream

import (
	"fmt"
	"io"

	"streamhist/internal/core"
	"streamhist/internal/table"
)

// MultiTap replicates the statistical circuit per column: the splitter's
// copy of the byte stream fans out to one Parser+Binner pair per column of
// interest, so a single table scan refreshes several histograms at once.
// The paper's prototype processes one column per scan (the host's metadata
// packet selects it); replicating the circuit is the same replication
// argument as §7 — each copy is independent, and the cut-through path is
// untouched either way.
type MultiTap struct {
	src     io.Reader
	parsers []*core.Parser
	binners []*core.Binner
	vals    [][]int64

	bytesRelayed int64
	parseErr     error
}

// NewMultiTap wires one circuit per (spec, binner) pair over src.
func NewMultiTap(src io.Reader, specs []core.ColumnSpec, binners []*core.Binner) (*MultiTap, error) {
	if len(specs) != len(binners) || len(specs) == 0 {
		return nil, fmt.Errorf("stream: need matching non-empty specs and binners, got %d/%d", len(specs), len(binners))
	}
	t := &MultiTap{src: src, binners: binners, vals: make([][]int64, len(specs))}
	for _, s := range specs {
		t.parsers = append(t.parsers, core.NewParser(s))
	}
	return t, nil
}

// Read implements io.Reader: the host path, with every circuit fed a copy.
func (t *MultiTap) Read(p []byte) (int, error) {
	n, err := t.src.Read(p)
	if n > 0 {
		t.bytesRelayed += int64(n)
		if t.parseErr == nil {
			for i, parser := range t.parsers {
				vals, perr := parser.Feed(p[:n], t.vals[i][:0])
				if perr != nil {
					t.parseErr = perr
					break
				}
				t.vals[i] = vals
				t.binners[i].PushAll(vals)
			}
		}
	}
	return n, err
}

// BytesRelayed returns the bytes delivered to the host.
func (t *MultiTap) BytesRelayed() int64 { return t.bytesRelayed }

// ParseErr returns the side path's first error, if any.
func (t *MultiTap) ParseErr() error { return t.parseErr }

// MultiColumnScan streams a relation once and returns one accelerator
// result per requested column. cfg customises each circuit (nil keeps
// defaults).
func MultiColumnScan(rel *table.Relation, columns []string, hostSink io.Writer, cfg func(string, core.Config) core.Config) (map[string]*core.Results, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("stream: no columns requested")
	}
	specs := make([]core.ColumnSpec, len(columns))
	configs := make([]core.Config, len(columns))
	binners := make([]*core.Binner, len(columns))
	for i, col := range columns {
		spec, err := core.SpecFor(rel.Schema, col)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		min, max, err := core.ColumnRange(rel.ColumnByName(col))
		if err != nil {
			return nil, fmt.Errorf("stream: column %q: %w", col, err)
		}
		c := core.DefaultConfig(spec, min, max)
		if cfg != nil {
			c = cfg(col, c)
		}
		configs[i] = c
		pre, err := core.RangeFor(c.Min, c.Max, c.Divisor)
		if err != nil {
			return nil, err
		}
		binners[i] = core.NewBinner(c.Binner, pre)
	}

	tap, err := NewMultiTap(NewPagesReader(rel), specs, binners)
	if err != nil {
		return nil, err
	}
	if hostSink == nil {
		hostSink = io.Discard
	}
	if _, err := io.CopyBuffer(hostSink, onlyReader{tap}, make([]byte, 64<<10)); err != nil {
		return nil, fmt.Errorf("stream: host copy: %w", err)
	}
	if err := tap.ParseErr(); err != nil {
		return nil, fmt.Errorf("stream: side path: %w", err)
	}

	out := make(map[string]*core.Results, len(columns))
	for i, col := range columns {
		_, bstats := binners[i].Finish()
		out[col] = configs[i].Results(binners[i], bstats, nil)
	}
	return out, nil
}
