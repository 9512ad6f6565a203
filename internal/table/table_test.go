package table

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTypeWidths(t *testing.T) {
	cases := []struct {
		typ  Type
		want int
	}{
		{Int64, 8},
		{Decimal, 8},
		{Date, 4},
		{DateUnpacked, 7},
	}
	for _, c := range cases {
		if got := c.typ.Width(); got != c.want {
			t.Errorf("%v.Width() = %d, want %d", c.typ, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "INT64" {
		t.Errorf("Int64.String() = %q", Int64.String())
	}
	if Decimal.String() != "DECIMAL" {
		t.Errorf("Decimal.String() = %q", Decimal.String())
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestUnknownTypeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown type width")
		}
	}()
	Type(200).Width()
}

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "a", Type: Int64},
		Column{Name: "b", Type: Date},
		Column{Name: "c", Type: Decimal, Scale: 2},
	)
}

func TestSchemaGeometry(t *testing.T) {
	s := testSchema()
	if got := s.RowWidth(); got != 20 {
		t.Errorf("RowWidth = %d, want 20", got)
	}
	if got := s.Offset(0); got != 0 {
		t.Errorf("Offset(0) = %d", got)
	}
	if got := s.Offset(1); got != 8 {
		t.Errorf("Offset(1) = %d", got)
	}
	if got := s.Offset(2); got != 12 {
		t.Errorf("Offset(2) = %d", got)
	}
	if got := s.ColumnIndex("c"); got != 2 {
		t.Errorf("ColumnIndex(c) = %d", got)
	}
	if got := s.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d, want -1", got)
	}
	if s.NumColumns() != 3 {
		t.Errorf("NumColumns = %d", s.NumColumns())
	}
}

func TestRelationAppendAndAccess(t *testing.T) {
	r := NewRelation("t", testSchema())
	if r.NumRows() != 0 {
		t.Fatalf("fresh relation has %d rows", r.NumRows())
	}
	r.Append(Row{1, 2, 3})
	r.Append(Row{4, 5, 6})
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", r.NumRows())
	}
	if got := r.Value(1, 2); got != 6 {
		t.Errorf("Value(1,2) = %d, want 6", got)
	}
	r.SetValue(1, 2, 60)
	if got := r.Value(1, 2); got != 60 {
		t.Errorf("after SetValue, Value(1,2) = %d, want 60", got)
	}
	row := r.RowAt(0, nil)
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Errorf("RowAt(0) = %v", row)
	}
	col := r.Column(1)
	if len(col) != 2 || col[0] != 2 || col[1] != 5 {
		t.Errorf("Column(1) = %v", col)
	}
	byName := r.ColumnByName("b")
	if byName[1] != 5 {
		t.Errorf("ColumnByName(b) = %v", byName)
	}
	if r.SizeBytes() != 40 {
		t.Errorf("SizeBytes = %d, want 40", r.SizeBytes())
	}
}

func TestRelationAppendWrongArity(t *testing.T) {
	r := NewRelation("t", testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong row arity")
		}
	}()
	r.Append(Row{1, 2})
}

func TestRelationColumnByNameUnknownPanics(t *testing.T) {
	r := NewRelation("t", testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown column")
		}
	}()
	r.ColumnByName("nope")
}

func TestRelationGrow(t *testing.T) {
	r := NewRelation("t", testSchema())
	r.Grow(1000)
	for i := 0; i < 1000; i++ {
		r.Append(Row{int64(i), int64(i), int64(i)})
	}
	if r.NumRows() != 1000 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	if r.Value(999, 0) != 999 {
		t.Errorf("Value(999,0) = %d", r.Value(999, 0))
	}
}

func TestPackDateKnownValues(t *testing.T) {
	cases := []struct {
		y, m, d int
		want    int64
	}{
		{1970, 1, 1, 0},
		{1970, 1, 2, 1},
		{1969, 12, 31, -1},
		{2000, 1, 1, 10957},
		{1998, 12, 1, 10561}, // a TPC-H date region
		{2026, 7, 7, 20641},
	}
	for _, c := range cases {
		if got := PackDate(c.y, c.m, c.d); got != c.want {
			t.Errorf("PackDate(%d,%d,%d) = %d, want %d", c.y, c.m, c.d, got, c.want)
		}
	}
}

func TestPackDateMatchesTimePackage(t *testing.T) {
	// Cross-check a broad range against the standard library.
	for _, date := range []struct{ y, m, d int }{
		{1900, 3, 1}, {1904, 2, 29}, {1970, 1, 1}, {1999, 12, 31},
		{2000, 2, 29}, {2100, 2, 28}, {2038, 1, 19}, {1960, 6, 15},
	} {
		want := time.Date(date.y, time.Month(date.m), date.d, 0, 0, 0, 0, time.UTC).Unix() / 86400
		if got := PackDate(date.y, date.m, date.d); got != want {
			t.Errorf("PackDate(%v) = %d, want %d", date, got, want)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		days := int64(raw % 1_000_000) // keep the year in a sane range
		y, m, d := UnpackDate(days)
		return PackDate(y, m, d) == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnpackDateKnown(t *testing.T) {
	y, m, d := UnpackDate(0)
	if y != 1970 || m != 1 || d != 1 {
		t.Errorf("UnpackDate(0) = %d-%d-%d", y, m, d)
	}
	y, m, d = UnpackDate(10957)
	if y != 2000 || m != 1 || d != 1 {
		t.Errorf("UnpackDate(10957) = %d-%d-%d", y, m, d)
	}
}
