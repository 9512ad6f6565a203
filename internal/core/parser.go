package core

import (
	"encoding/binary"
	"fmt"

	"streamhist/internal/page"
	"streamhist/internal/table"
)

// ColumnSpec is the metadata packet the host piggybacks on the read command
// (§4): which byte range of each row carries the column of interest and how
// to interpret it. The "simple counting state machine" of the Parser is
// configured from this.
type ColumnSpec struct {
	// Offset is the byte offset of the column within an encoded row.
	Offset int
	// Type determines the column's width and decoding.
	Type table.Type
}

// SpecFor derives the ColumnSpec for a named column of a schema.
func SpecFor(schema *table.Schema, column string) (ColumnSpec, error) {
	idx := schema.ColumnIndex(column)
	if idx < 0 {
		return ColumnSpec{}, fmt.Errorf("core: schema has no column %q", column)
	}
	return ColumnSpec{Offset: schema.Offset(idx), Type: schema.Column(idx).Type}, nil
}

// parserState enumerates the FSM states of the Parser.
type parserState uint8

const (
	psHeader   parserState = iota // consuming the page header
	psSkipPre                     // skipping row bytes before the column
	psColumn                      // accumulating the column's bytes
	psSkipPost                    // skipping row bytes after the column
)

// Parser is the first module of the statistical circuit (§4): a counting
// finite-state machine that walks the byte stream of database pages and
// extracts the raw values of one column. It keeps constant state — a page
// header image, per-row byte counters, and a small value accumulator —
// matching the paper's constant-space parsing claim.
type Parser struct {
	spec ColumnSpec

	state    parserState
	hdr      [page.HeaderSize]byte
	hdrFill  int
	rowWidth int
	rowsLeft int
	pageByte int // bytes consumed of the current page (to skip padding)

	pos     int // bytes consumed within the current row section
	colBuf  [8]byte
	colFill int
}

// NewParser builds a Parser for the given column spec.
func NewParser(spec ColumnSpec) *Parser {
	return &Parser{spec: spec}
}

// Feed consumes a chunk of the page byte stream, appending every completed
// column value to out and returning the extended slice. Chunks may split
// pages, rows, and even single values at any byte boundary — the FSM carries
// its state across calls, as the hardware does across clock cycles.
func (p *Parser) Feed(chunk []byte, out []int64) ([]int64, error) {
	colWidth := p.spec.Type.Width()
	// Fast path: when the FSM sits at a page boundary and the chunk holds a
	// whole page image, decode the column with a strided walk over the page
	// buffer — zero copies into the FSM's accumulator, no per-byte loop. Any
	// anomaly (bad magic, inconsistent geometry, a validating column type)
	// falls back to the FSM below without consuming a byte, so error text and
	// partial output stay bit-identical to the FSM's.
	for p.state == psHeader && p.hdrFill == 0 && p.pageByte == 0 && len(chunk) >= page.Size {
		fastOut, ok := p.fastPage(chunk[:page.Size], out, colWidth)
		if !ok {
			break
		}
		out = fastOut
		chunk = chunk[page.Size:]
	}
	for _, b := range chunk {
		p.pageByte++
		switch p.state {
		case psHeader:
			p.hdr[p.hdrFill] = b
			p.hdrFill++
			if p.hdrFill == page.HeaderSize {
				if magic := uint16(p.hdr[0]) | uint16(p.hdr[1])<<8; magic != page.Magic {
					return out, fmt.Errorf("core: parser: %w: bad magic %#x", page.ErrCorrupt, magic)
				}
				p.rowsLeft = int(uint16(p.hdr[2]) | uint16(p.hdr[3])<<8)
				p.rowWidth = int(uint16(p.hdr[4]) | uint16(p.hdr[5])<<8)
				p.hdrFill = 0
				if p.rowsLeft == 0 {
					p.state = psSkipPost // page of padding only
					p.pos = 0
				} else {
					p.startRow()
				}
			}
		case psSkipPre:
			p.pos++
			if p.pos == p.spec.Offset {
				p.state = psColumn
				p.colFill = 0
			}
		case psColumn:
			p.colBuf[p.colFill] = b
			p.colFill++
			p.pos++
			if p.colFill == colWidth {
				v, _, err := page.DecodeValue(p.colBuf[:colWidth], p.spec.Type)
				if err != nil {
					return out, fmt.Errorf("core: parser: %w", err)
				}
				out = append(out, v)
				if p.pos == p.rowWidth {
					p.endRow()
				} else {
					p.state = psSkipPost
				}
			}
		case psSkipPost:
			p.pos++
			if p.rowsLeft > 0 && p.pos == p.rowWidth {
				p.endRow()
			}
		}
		// Page padding: once all rows are consumed, skip to the page end.
		if p.pageByte == page.Size {
			p.state = psHeader
			p.hdrFill = 0
			p.pageByte = 0
		}
	}
	return out, nil
}

// fastPage decodes one aligned, whole page image without running the FSM.
// It reports ok=false — having consumed nothing — whenever byte-at-a-time
// parsing could behave differently: bad magic (the FSM raises the error),
// geometry that walks outside the row region (the FSM's wrap-around
// semantics apply), or a column type whose decoder can reject values
// mid-page (DateUnpacked).
func (p *Parser) fastPage(pg []byte, out []int64, colWidth int) ([]int64, bool) {
	if magic := uint16(pg[0]) | uint16(pg[1])<<8; magic != page.Magic {
		return out, false
	}
	rows := int(uint16(pg[2]) | uint16(pg[3])<<8)
	rowWidth := int(uint16(pg[4]) | uint16(pg[5])<<8)
	if rows == 0 {
		return out, true // page of padding only
	}
	if rowWidth <= 0 || page.HeaderSize+rows*rowWidth > page.Size ||
		p.spec.Offset+colWidth > rowWidth {
		return out, false
	}
	off := page.HeaderSize + p.spec.Offset
	switch p.spec.Type {
	case table.Int64, table.Decimal:
		for r := 0; r < rows; r++ {
			out = append(out, int64(binary.LittleEndian.Uint64(pg[off:])))
			off += rowWidth
		}
	case table.Date:
		for r := 0; r < rows; r++ {
			out = append(out, int64(int32(binary.LittleEndian.Uint32(pg[off:]))))
			off += rowWidth
		}
	default:
		return out, false
	}
	return out, true
}

// startRow arms the FSM for the next row of the current page.
func (p *Parser) startRow() {
	p.pos = 0
	if p.spec.Offset == 0 {
		p.state = psColumn
		p.colFill = 0
	} else {
		p.state = psSkipPre
	}
}

// endRow finishes the current row and either starts the next row or begins
// skipping page padding.
func (p *Parser) endRow() {
	p.rowsLeft--
	if p.rowsLeft > 0 {
		p.startRow()
	} else {
		p.state = psSkipPost
		p.pos = 0
	}
}

// ParsePages is a convenience wrapper that streams whole page images through
// the FSM and returns the extracted column.
func (p *Parser) ParsePages(pages []*page.Page) ([]int64, error) {
	var out []int64
	for _, pg := range pages {
		var err error
		out, err = p.Feed(pg.Bytes(), out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
