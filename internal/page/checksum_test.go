package page

import (
	"testing"

	"streamhist/internal/table"
)

func checksumTestPage(t *testing.T) *Page {
	t.Helper()
	schema := table.NewSchema(table.Column{Name: "v", Type: table.Int64})
	p := New(schema)
	for i := int64(0); i < 100; i++ {
		if !p.AppendRow(schema, table.Row{i * 3}) {
			t.Fatal("page full too early")
		}
	}
	return p
}

func TestChecksumDetectsEveryByteFlip(t *testing.T) {
	p := checksumTestPage(t)
	sum := p.Checksum()
	if p.Checksum() != sum {
		t.Fatal("clean page fails its own checksum")
	}
	buf := p.Bytes()
	// Walk the image with a stride so the test stays fast but covers the
	// header, row area, and unused tail.
	for off := 0; off < len(buf); off += 37 {
		orig := buf[off]
		buf[off] ^= 0xFF
		if p.Checksum() == sum {
			t.Fatalf("flip at offset %d not detected", off)
		}
		buf[off] = orig
	}
	if p.Checksum() != sum {
		t.Fatal("restored page fails checksum")
	}
}

func TestChecksumStableAcrossCopies(t *testing.T) {
	p := checksumTestPage(t)
	img := make([]byte, Size)
	copy(img, p.Bytes())
	if Checksum(img) != p.Checksum() {
		t.Fatal("checksum differs between a page and its copied image")
	}
}

func TestChecksumChangesWithContent(t *testing.T) {
	schema := table.NewSchema(table.Column{Name: "v", Type: table.Int64})
	a, b := New(schema), New(schema)
	a.AppendRow(schema, table.Row{1})
	b.AppendRow(schema, table.Row{2})
	if a.Checksum() == b.Checksum() {
		t.Fatal("different contents share a checksum")
	}
}
