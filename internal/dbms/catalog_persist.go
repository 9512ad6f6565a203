package dbms

import (
	"encoding/binary"
	"errors"
	"fmt"

	"streamhist/internal/hist"
	"streamhist/internal/sketch"
)

// Catalog persistence: statistics survive restarts in real engines. An
// entry's one persistent form is the AppendColumnStats layout below, made
// once by Catalog.Put: the durable WAL's put records and its checkpoint
// files carry it (internal/durable), and a Stats reply is the same bytes
// behind the wire's own head (internal/server). Histograms use
// hist.Histogram's binary format, sketches their "SK" encoding.

// entryVersionOffset is where the version sits in an encoded entry; Put
// stamps it there under the catalog lock.
const entryVersionOffset = 16

// ErrCorruptCatalog reports an undecodable catalog entry.
var ErrCorruptCatalog = errors.New("dbms: corrupt catalog entry")

// AppendColumnStats appends the catalog's per-entry binary layout for s:
//
//	ndistinct int64, rowcount int64, version uint64
//	histogram     (uint32 length + hist binary; length 0 = no histogram)
//	sketch count  uint16
//	per sketch:   uint32 length + "SK" block encoding
//
// Encoding is deterministic, so an entry that decodes re-encodes to the
// bytes it came from.
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
// buf, returning the entry and the remaining bytes. The entry keeps a
// private copy of the bytes it was decoded from (its Encoded form), so it
// pins nothing of buf. Corrupt input yields ErrCorruptCatalog (or the
// histogram/sketch decoders' own corruption errors), never a panic.
func DecodeColumnStats(buf []byte) (*ColumnStats, []byte, error) {
	whole := buf
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
	s.enc = append([]byte(nil), whole[:len(whole)-len(buf)]...)
	return s, buf, nil
}
