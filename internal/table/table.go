// Package table defines relational schemas and the physical value encodings
// used throughout the repository.
//
// All column values are carried in memory as int64 "raw" values. The Type of
// a column says how a raw value is to be interpreted and how it is laid out
// on a database page:
//
//   - Int64: a plain signed integer, 8 bytes on the page.
//   - Decimal: a fixed-point number scaled by 10^Scale (TPC-H prices are
//     Decimal with Scale 2, i.e. stored in cents), 8 bytes on the page.
//   - Date: days since 1970-01-01, 4 bytes on the page.
//   - DateUnpacked: the same logical date but stored the way Oracle stores
//     DATE objects — unpacked into explicit century/year/month/day bytes
//     (7 bytes on the page). The accelerator's preprocessor knows how to
//     convert this representation back to an integer (days) on the fly,
//     which is exactly the conversion described in §5.1.1 of the paper.
package table

import "fmt"

// Type enumerates the physical column types understood by the parser and the
// preprocessor.
type Type uint8

const (
	// Int64 is a plain 8-byte signed integer.
	Int64 Type = iota
	// Decimal is a fixed-point number stored as an 8-byte scaled integer.
	Decimal
	// Date is a 4-byte count of days since the Unix epoch.
	Date
	// DateUnpacked is a 7-byte Oracle-style unpacked date
	// (century, year-of-century, month, day, hour, minute, second).
	DateUnpacked
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INT64"
	case Decimal:
		return "DECIMAL"
	case Date:
		return "DATE"
	case DateUnpacked:
		return "DATE(UNPACKED)"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Width returns the number of bytes the type occupies on a page.
func (t Type) Width() int {
	switch t {
	case Int64, Decimal:
		return 8
	case Date:
		return 4
	case DateUnpacked:
		return 7
	default:
		panic(fmt.Sprintf("table: unknown type %d", uint8(t)))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
	// Scale is the decimal scale for Decimal columns (value = raw / 10^Scale).
	Scale int
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from the given columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// RowWidth returns the number of bytes one row occupies on a page.
func (s *Schema) RowWidth() int {
	w := 0
	for _, c := range s.Columns {
		w += c.Type.Width()
	}
	return w
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the column at position i.
func (s *Schema) Column(i int) Column { return s.Columns[i] }

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// Offset returns the byte offset of column i within an encoded row.
func (s *Schema) Offset(i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += s.Columns[j].Type.Width()
	}
	return off
}

// Row is a single tuple, one raw int64 per column.
type Row []int64

// Relation is an in-memory table: a schema plus a column-agnostic row store.
// Rows are stored row-major, flattened into a single slice to keep the data
// cache-friendly for the multi-hundred-million-value experiments.
type Relation struct {
	Schema *Schema
	Name   string

	ncols int
	data  []int64
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Schema: schema, Name: name, ncols: schema.NumColumns()}
}

// NumRows returns the number of rows in the relation.
func (r *Relation) NumRows() int {
	if r.ncols == 0 {
		return 0
	}
	return len(r.data) / r.ncols
}

// Append adds a row. The row must have exactly one value per column.
func (r *Relation) Append(row Row) {
	if len(row) != r.ncols {
		panic(fmt.Sprintf("table: row has %d values, schema has %d columns", len(row), r.ncols))
	}
	r.data = append(r.data, row...)
}

// Grow pre-allocates capacity for n additional rows.
func (r *Relation) Grow(n int) {
	need := len(r.data) + n*r.ncols
	if cap(r.data) < need {
		grown := make([]int64, len(r.data), need)
		copy(grown, r.data)
		r.data = grown
	}
}

// Value returns the raw value at (row, col).
func (r *Relation) Value(row, col int) int64 {
	return r.data[row*r.ncols+col]
}

// SetValue overwrites the raw value at (row, col).
func (r *Relation) SetValue(row, col int, v int64) {
	r.data[row*r.ncols+col] = v
}

// RowAt copies row i into dst (allocating if dst is too small) and returns it.
func (r *Relation) RowAt(i int, dst Row) Row {
	if cap(dst) < r.ncols {
		dst = make(Row, r.ncols)
	}
	dst = dst[:r.ncols]
	copy(dst, r.data[i*r.ncols:(i+1)*r.ncols])
	return dst
}

// Column returns a view of one full column as a fresh slice.
func (r *Relation) Column(col int) []int64 {
	n := r.NumRows()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = r.data[i*r.ncols+col]
	}
	return out
}

// ColumnByName is Column keyed by name; it panics if the column is unknown.
func (r *Relation) ColumnByName(name string) []int64 {
	idx := r.Schema.ColumnIndex(name)
	if idx < 0 {
		panic(fmt.Sprintf("table: relation %q has no column %q", r.Name, name))
	}
	return r.Column(idx)
}

// SizeBytes returns the on-page size of the relation (rows * row width).
func (r *Relation) SizeBytes() int64 {
	return int64(r.NumRows()) * int64(r.Schema.RowWidth())
}

// PackDate converts (year, month, day) to days since 1970-01-01 using the
// proleptic Gregorian calendar. It is the inverse of UnpackDate.
func PackDate(year, month, day int) int64 {
	// Algorithm from Howard Hinnant's chrono date algorithms (civil_from_days
	// inverse), which needs no time package and no allocations.
	y := int64(year)
	if month <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400 // [0, 399]
	var m int64 = int64(month)
	var doyAdj int64
	if m > 2 {
		doyAdj = m - 3
	} else {
		doyAdj = m + 9
	}
	doy := (153*doyAdj+2)/5 + int64(day) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// UnpackDate converts days since 1970-01-01 back to (year, month, day).
func UnpackDate(days int64) (year, month, day int) {
	z := days + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	var m int64
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return int(y), int(m), int(d)
}
