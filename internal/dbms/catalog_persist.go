package dbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"streamhist/internal/hist"
	"streamhist/internal/sketch"
)

// Catalog persistence: statistics survive restarts in real engines, so the
// catalog serialises to a compact binary image (histograms use
// hist.Histogram's own binary format, sketches their "SK" encoding).
//
// The layout (v2) is:
//
//	magic uint32 = 0x32544154 ("TAT2")
//	table-version count uint32
//	per table:   name (uint16 length + bytes), version uint64
//	entry count uint32
//	per entry:
//	  table name   (uint16 length + bytes)
//	  column name  (uint16 length + bytes)
//	  entry body   (see AppendColumnStats)
//
// Tables and entries are written in sorted order so the encoding is
// deterministic. The magic is the image's version: a v1 image ("TATS", no
// table versions, no sketches) is refused by name, not migrated.

const catalogMagicV2 uint32 = 0x32544154

// ErrCorruptCatalog reports an undecodable catalog image.
var ErrCorruptCatalog = errors.New("dbms: corrupt catalog image")

// AppendColumnStats appends the catalog's per-entry binary layout for s:
//
//	ndistinct int64, rowcount int64, version uint64
//	histogram     (uint32 length + hist binary; length 0 = no histogram)
//	sketch count  uint16
//	per sketch:   uint32 length + "SK" block encoding
//
// The same layout is the payload of a durable-WAL put record, so a catalog
// image and a journal replay reconstruct bit-identical entries.
func AppendColumnStats(dst []byte, s *ColumnStats) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.NDistinct))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.RowCount))
	dst = binary.LittleEndian.AppendUint64(dst, s.Version)
	var hbytes []byte
	if s.Histogram != nil {
		var err error
		hbytes, err = s.Histogram.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("dbms: encode histogram: %w", err)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hbytes)))
	dst = append(dst, hbytes...)
	raws, err := sketch.EncodeBlocks(s.Sketches)
	if err != nil {
		return nil, fmt.Errorf("dbms: encode sketches: %w", err)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(raws)))
	for _, raw := range raws {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(raw)))
		dst = append(dst, raw...)
	}
	return dst, nil
}

// DecodeColumnStats decodes one AppendColumnStats entry from the front of
// buf, returning the entry and the remaining bytes. Corrupt input yields
// ErrCorruptCatalog (or the histogram/sketch decoders' own corruption
// errors), never a panic.
func DecodeColumnStats(buf []byte) (*ColumnStats, []byte, error) {
	if len(buf) < 8*3+4 {
		return nil, nil, fmt.Errorf("%w: entry header truncated", ErrCorruptCatalog)
	}
	s := &ColumnStats{
		NDistinct: int64(binary.LittleEndian.Uint64(buf[0:])),
		RowCount:  int64(binary.LittleEndian.Uint64(buf[8:])),
		Version:   binary.LittleEndian.Uint64(buf[16:]),
	}
	hlen := binary.LittleEndian.Uint32(buf[24:])
	buf = buf[28:]
	if uint64(hlen) > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("%w: histogram truncated", ErrCorruptCatalog)
	}
	if hlen > 0 {
		s.Histogram = &hist.Histogram{}
		if err := s.Histogram.UnmarshalBinary(buf[:hlen]); err != nil {
			return nil, nil, err
		}
		buf = buf[hlen:]
	}
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("%w: sketch count truncated", ErrCorruptCatalog)
	}
	nsk := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if nsk > 0 {
		raws := make([][]byte, 0, nsk)
		for i := 0; i < nsk; i++ {
			if len(buf) < 4 {
				return nil, nil, fmt.Errorf("%w: sketch %d length truncated", ErrCorruptCatalog, i)
			}
			sklen := binary.LittleEndian.Uint32(buf)
			buf = buf[4:]
			if uint64(sklen) > uint64(len(buf)) {
				return nil, nil, fmt.Errorf("%w: sketch %d truncated", ErrCorruptCatalog, i)
			}
			raws = append(raws, buf[:sklen])
			buf = buf[sklen:]
		}
		blocks, err := sketch.DecodeBlocks(raws)
		if err != nil {
			return nil, nil, err
		}
		s.Sketches = blocks
	}
	return s, buf, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for the catalog,
// emitting the v2 layout.
func (c *Catalog) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()

	type flat struct {
		table, column string
		stats         *ColumnStats
	}
	var entries []flat
	for tbl, cols := range c.stats {
		for col, s := range cols {
			entries = append(entries, flat{tbl, col, s})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].table != entries[j].table {
			return entries[i].table < entries[j].table
		}
		return entries[i].column < entries[j].column
	})
	tables := make([]string, 0, len(c.versions))
	for tbl := range c.versions {
		tables = append(tables, tbl)
	}
	sort.Strings(tables)

	buf := make([]byte, 0, 256)
	appendStr := func(s string) {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, catalogMagicV2)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tables)))
	for _, tbl := range tables {
		appendStr(tbl)
		buf = binary.LittleEndian.AppendUint64(buf, c.versions[tbl])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		appendStr(e.table)
		appendStr(e.column)
		var err error
		buf, err = AppendColumnStats(buf, e.stats)
		if err != nil {
			return nil, fmt.Errorf("dbms: catalog entry %s.%s: %w", e.table, e.column, err)
		}
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the decoded
// entries replace the catalog's statistics.
func (c *Catalog) UnmarshalBinary(buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("%w: bad header", ErrCorruptCatalog)
	}
	if binary.LittleEndian.Uint32(buf) != catalogMagicV2 {
		return fmt.Errorf("%w: image version %q (this build reads \"TAT2\" only)", ErrCorruptCatalog, buf[:4])
	}
	buf = buf[4:]
	readStr := func() (string, bool) {
		if len(buf) < 2 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(buf))
		if len(buf) < 2+n {
			return "", false
		}
		s := string(buf[2 : 2+n])
		buf = buf[2+n:]
		return s, true
	}
	if len(buf) < 4 {
		return fmt.Errorf("%w: missing table count", ErrCorruptCatalog)
	}
	ntables := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	versions := make(map[string]uint64, ntables)
	for i := uint32(0); i < ntables; i++ {
		tbl, ok := readStr()
		if !ok || len(buf) < 8 {
			return fmt.Errorf("%w: table version %d", ErrCorruptCatalog, i)
		}
		versions[tbl] = binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
	}
	if len(buf) < 4 {
		return fmt.Errorf("%w: missing entry count", ErrCorruptCatalog)
	}
	count := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	stats := make(map[string]map[string]*ColumnStats)
	for i := uint32(0); i < count; i++ {
		tbl, ok := readStr()
		if !ok {
			return fmt.Errorf("%w: entry %d table name", ErrCorruptCatalog, i)
		}
		col, ok := readStr()
		if !ok {
			return fmt.Errorf("%w: entry %d column name", ErrCorruptCatalog, i)
		}
		s, rest, err := DecodeColumnStats(buf)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		buf = rest
		if stats[tbl] == nil {
			stats[tbl] = make(map[string]*ColumnStats)
		}
		stats[tbl][col] = s
		if s.Version > versions[tbl] {
			versions[tbl] = s.Version
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptCatalog, len(buf))
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = stats
	c.versions = versions
	return nil
}
