// Package page implements the on-the-wire database page format that moves
// between storage and the host, and that the accelerator's Parser understands.
//
// The format is deliberately simple but realistic: fixed-size pages with a
// small header followed by densely packed fixed-width rows. Values are
// little-endian. Oracle-style unpacked dates are stored using the excess-100
// century/year encoding described in the Oracle Call Interface documentation
// (and referenced by §5.1.1 of the paper).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"

	"streamhist/internal/table"
)

// Size is the fixed page size in bytes (8 KiB, a common DBMS default).
const Size = 8192

// HeaderSize is the number of bytes of metadata at the start of each page.
const HeaderSize = 8

// Magic identifies a valid page.
const Magic uint16 = 0xD0C5

// Header layout (8 bytes):
//
//	[0:2]  magic
//	[2:4]  number of rows on this page
//	[4:6]  row width in bytes
//	[6:8]  number of columns
type Page struct {
	buf []byte
}

// ErrCorrupt reports a malformed page.
var ErrCorrupt = errors.New("page: corrupt page")

// New returns an empty page for rows of the given schema.
func New(schema *table.Schema) *Page {
	p := &Page{buf: make([]byte, Size)}
	binary.LittleEndian.PutUint16(p.buf[0:2], Magic)
	binary.LittleEndian.PutUint16(p.buf[2:4], 0)
	binary.LittleEndian.PutUint16(p.buf[4:6], uint16(schema.RowWidth()))
	binary.LittleEndian.PutUint16(p.buf[6:8], uint16(schema.NumColumns()))
	return p
}

// FromBytes wraps an existing page image. The slice is retained, not copied.
func FromBytes(buf []byte) (*Page, error) {
	if len(buf) != Size {
		return nil, fmt.Errorf("%w: page is %d bytes, want %d", ErrCorrupt, len(buf), Size)
	}
	p := &Page{buf: buf}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint16(buf[0:2]))
	}
	if int(p.NumRows())*p.RowWidth()+HeaderSize > Size {
		return nil, fmt.Errorf("%w: %d rows of width %d overflow the page", ErrCorrupt, p.NumRows(), p.RowWidth())
	}
	return p, nil
}

// Bytes returns the raw page image.
func (p *Page) Bytes() []byte { return p.buf }

// NumRows returns the number of rows stored on the page.
func (p *Page) NumRows() int { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }

// RowWidth returns the encoded width of one row in bytes.
func (p *Page) RowWidth() int { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }

// Capacity returns how many rows of this page's width fit on a page.
func (p *Page) Capacity() int {
	w := p.RowWidth()
	if w == 0 {
		return 0
	}
	return (Size - HeaderSize) / w
}

// AppendRow encodes row at the end of the page. It reports false when the
// page is full.
func (p *Page) AppendRow(schema *table.Schema, row table.Row) bool {
	n := p.NumRows()
	if n >= p.Capacity() {
		return false
	}
	off := HeaderSize + n*p.RowWidth()
	EncodeRow(p.buf[off:off+p.RowWidth()], schema, row)
	binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n+1))
	return true
}

// EncodeRow writes the fixed-width binary encoding of row into dst, which
// must be at least schema.RowWidth() bytes.
func EncodeRow(dst []byte, schema *table.Schema, row table.Row) {
	off := 0
	for i, col := range schema.Columns {
		off += encodeValue(dst[off:], col.Type, row[i])
	}
}

func encodeValue(dst []byte, t table.Type, v int64) int {
	switch t {
	case table.Int64, table.Decimal:
		binary.LittleEndian.PutUint64(dst, uint64(v))
		return 8
	case table.Date:
		binary.LittleEndian.PutUint32(dst, uint32(int32(v)))
		return 4
	case table.DateUnpacked:
		y, m, d := table.UnpackDate(v)
		// Oracle DATE: century and year-of-century stored excess-100,
		// month/day plain, hour/min/sec excess-1 (we store midnight).
		dst[0] = byte(y/100 + 100)
		dst[1] = byte(y%100 + 100)
		dst[2] = byte(m)
		dst[3] = byte(d)
		dst[4] = 1
		dst[5] = 1
		dst[6] = 1
		return 7
	default:
		panic(fmt.Sprintf("page: unknown type %v", t))
	}
}

// DecodeValue parses one value of type t from src, returning the raw value
// and the number of bytes consumed. DateUnpacked values are normalised back
// to days-since-epoch, mirroring what the accelerator's preprocessor does in
// hardware.
func DecodeValue(src []byte, t table.Type) (int64, int, error) {
	switch t {
	case table.Int64, table.Decimal:
		if len(src) < 8 {
			return 0, 0, ErrCorrupt
		}
		return int64(binary.LittleEndian.Uint64(src)), 8, nil
	case table.Date:
		if len(src) < 4 {
			return 0, 0, ErrCorrupt
		}
		return int64(int32(binary.LittleEndian.Uint32(src))), 4, nil
	case table.DateUnpacked:
		if len(src) < 7 {
			return 0, 0, ErrCorrupt
		}
		year := (int(src[0])-100)*100 + int(src[1]) - 100
		month := int(src[2])
		day := int(src[3])
		if month < 1 || month > 12 || day < 1 || day > 31 {
			return 0, 0, fmt.Errorf("%w: bad unpacked date %d-%d-%d", ErrCorrupt, year, month, day)
		}
		return table.PackDate(year, month, day), 7, nil
	default:
		return 0, 0, fmt.Errorf("page: unknown type %v", t)
	}
}

// Encode converts an entire relation to its sequence of page images. The
// returned slice of pages is what "moves" from storage to the host in the
// experiments.
func Encode(rel *table.Relation) []*Page {
	var pages []*Page
	cur := New(rel.Schema)
	var row table.Row
	for i := 0; i < rel.NumRows(); i++ {
		row = rel.RowAt(i, row)
		if !cur.AppendRow(rel.Schema, row) {
			pages = append(pages, cur)
			cur = New(rel.Schema)
			if !cur.AppendRow(rel.Schema, row) {
				panic("page: row does not fit on an empty page")
			}
		}
	}
	if cur.NumRows() > 0 {
		pages = append(pages, cur)
	}
	return pages
}
