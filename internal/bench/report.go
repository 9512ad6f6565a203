// Package bench contains one runner per table and figure of the paper's
// evaluation (§2 and §6). Each runner returns a Report — the same rows or
// series the paper plots — which cmd/histbench renders and EXPERIMENTS.md
// records.
//
// Scaling policy: experiments that execute real Go code (query plans,
// analyzers, the cycle-accounted circuit) run on scaled-down replicas of
// the paper's tables (Scale rows instead of 30–450 M); experiments that
// plot paper-scale seconds evaluate the calibrated cost models at the
// paper's full row counts. Every Report says which it did in its Notes.
package bench

import (
	"fmt"
	"strings"
)

// Report is one reproduced table or figure.
type Report struct {
	// ID is the paper artifact, e.g. "fig16" or "table2".
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes explain scaling, substitutions, and expected shape.
	Notes []string
	// Raw carries the unformatted series keyed by name, for shape
	// assertions in tests and for EXPERIMENTS.md generation.
	Raw map[string][]float64
}

// AddRaw appends a value to the named raw series.
func (r *Report) AddRaw(series string, v float64) {
	if r.Raw == nil {
		r.Raw = make(map[string][]float64)
	}
	r.Raw[series] = append(r.Raw[series], v)
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// seconds formats a duration in seconds with adaptive precision.
func seconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.1fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.1fµs", s*1e6)
	default:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
}

// millions formats a row count.
func millions(rows float64) string {
	return fmt.Sprintf("%gM", rows/1e6)
}
