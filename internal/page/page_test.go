package page

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"streamhist/internal/datagen"
	"streamhist/internal/table"
)

func mixedSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "k", Type: table.Int64},
		table.Column{Name: "price", Type: table.Decimal, Scale: 2},
		table.Column{Name: "d", Type: table.Date},
		table.Column{Name: "od", Type: table.DateUnpacked},
	)
}

// readRow decodes row i of p column by column with DecodeValue, the way the
// parser reads a page image.
func readRow(t *testing.T, p *Page, s *table.Schema, i int) table.Row {
	t.Helper()
	src := p.Bytes()[HeaderSize+i*p.RowWidth():]
	row := make(table.Row, s.NumColumns())
	for c, col := range s.Columns {
		v, n, err := DecodeValue(src, col.Type)
		if err != nil {
			t.Fatalf("row %d col %d: %v", i, c, err)
		}
		row[c], src = v, src[n:]
	}
	return row
}

func TestNewPageHeader(t *testing.T) {
	s := mixedSchema()
	p := New(s)
	if p.NumRows() != 0 {
		t.Errorf("fresh page NumRows = %d", p.NumRows())
	}
	if p.RowWidth() != s.RowWidth() {
		t.Errorf("RowWidth = %d, want %d", p.RowWidth(), s.RowWidth())
	}
	if n := binary.LittleEndian.Uint16(p.Bytes()[6:8]); n != 4 {
		t.Errorf("header column count = %d", n)
	}
	if p.Capacity() != (Size-HeaderSize)/s.RowWidth() {
		t.Errorf("Capacity = %d", p.Capacity())
	}
	if len(p.Bytes()) != Size {
		t.Errorf("page image is %d bytes", len(p.Bytes()))
	}
}

func TestAppendAndReadRow(t *testing.T) {
	s := mixedSchema()
	p := New(s)
	in := table.Row{42, 12345, 10957, table.PackDate(1998, 12, 1)}
	if !p.AppendRow(s, in) {
		t.Fatal("AppendRow failed on empty page")
	}
	out := readRow(t, p, s, 0)
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("col %d: got %d, want %d", i, out[i], in[i])
		}
	}
}

func TestPageFillsToCapacity(t *testing.T) {
	s := mixedSchema()
	p := New(s)
	n := 0
	for p.AppendRow(s, table.Row{int64(n), 0, 0, 0}) {
		n++
	}
	if n != p.Capacity() {
		t.Errorf("filled %d rows, capacity %d", n, p.Capacity())
	}
	if p.NumRows() != n {
		t.Errorf("NumRows = %d, want %d", p.NumRows(), n)
	}
}

func TestFromBytesValidation(t *testing.T) {
	if _, err := FromBytes(make([]byte, 100)); err == nil {
		t.Error("short buffer should be rejected")
	}
	buf := make([]byte, Size)
	if _, err := FromBytes(buf); err == nil {
		t.Error("zero magic should be rejected")
	}
	p := New(mixedSchema())
	if _, err := FromBytes(p.Bytes()); err != nil {
		t.Errorf("valid page rejected: %v", err)
	}
	// Corrupt the row count so rows overflow the page.
	img := append([]byte(nil), p.Bytes()...)
	img[2] = 0xff
	img[3] = 0xff
	if _, err := FromBytes(img); err == nil {
		t.Error("overflowing row count should be rejected")
	}
}

func TestEncodeDecodeRelationRoundTrip(t *testing.T) {
	s := mixedSchema()
	rel := table.NewRelation("t", s)
	rng := datagen.NewRNG(7)
	for i := 0; i < 2500; i++ { // several pages worth
		rel.Append(table.Row{
			rng.Int63n(1 << 40),
			rng.Int63n(1_000_000),
			rng.Int63n(20000),
			rng.Int63n(20000),
		})
	}
	pages := Encode(rel)
	if len(pages) < 2 {
		t.Fatalf("expected multiple pages, got %d", len(pages))
	}
	i := 0
	for _, p := range pages {
		for r := 0; r < p.NumRows(); r++ {
			row := readRow(t, p, s, r)
			for c := range row {
				if rel.Value(i, c) != row[c] {
					t.Fatalf("row %d col %d: %d != %d", i, c, rel.Value(i, c), row[c])
				}
			}
			i++
		}
	}
	if i != rel.NumRows() {
		t.Fatalf("row count %d != %d", i, rel.NumRows())
	}
}

func TestEncodeEmptyRelation(t *testing.T) {
	rel := table.NewRelation("t", mixedSchema())
	if pages := Encode(rel); len(pages) != 0 {
		t.Errorf("empty relation produced %d pages", len(pages))
	}
}

func TestDecodeValueRejectsShortInput(t *testing.T) {
	for _, typ := range []table.Type{table.Int64, table.Date, table.DateUnpacked} {
		if _, _, err := DecodeValue([]byte{1, 2}, typ); err == nil {
			t.Errorf("%v: short input accepted", typ)
		}
	}
}

func TestDecodeValueRejectsBadUnpackedDate(t *testing.T) {
	// month 13 is invalid
	buf := []byte{119, 198, 13, 1, 1, 1, 1}
	if _, _, err := DecodeValue(buf, table.DateUnpacked); err == nil {
		t.Error("bad unpacked date accepted")
	}
}

func TestUnpackedDateOracleEncoding(t *testing.T) {
	// 1998-12-01 must encode century 119, year-of-century 198 (excess-100).
	s := table.NewSchema(table.Column{Name: "d", Type: table.DateUnpacked})
	var buf [7]byte
	EncodeRow(buf[:], s, table.Row{table.PackDate(1998, 12, 1)})
	want := []byte{119, 198, 12, 1, 1, 1, 1}
	if !bytes.Equal(buf[:], want) {
		t.Errorf("unpacked encoding = %v, want %v", buf, want)
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(raw int64, pick uint8) bool {
		types := []table.Type{table.Int64, table.Decimal, table.Date, table.DateUnpacked}
		typ := types[int(pick)%len(types)]
		v := raw
		switch typ {
		case table.Date:
			v = raw % (1 << 22) // keep int32-representable and sane
			if v < 0 {
				v = -v
			}
		case table.DateUnpacked:
			v = raw % 100_000 // stay within plausible year bounds
			if v < 0 {
				v = -v
			}
		}
		var buf [8]byte
		s := table.NewSchema(table.Column{Name: "x", Type: typ})
		EncodeRow(buf[:], s, table.Row{v})
		got, n, err := DecodeValue(buf[:], typ)
		return err == nil && n == typ.Width() && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
