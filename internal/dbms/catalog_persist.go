package dbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"streamhist/internal/hist"
	"streamhist/internal/sketch"
	"streamhist/internal/wire"
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
// bytes it came from (FuzzDecodeColumnStats holds the decoder to this).
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
	d := wire.NewDecoder(buf, ErrCorruptCatalog)
	s := &ColumnStats{NDistinct: int64(d.U64()), RowCount: int64(d.U64()), Version: d.U64()}
	hbytes := d.Bytes(int(d.U32()))
	raws := make([][]byte, d.Count(uint64(d.U16()), math.MaxInt, 4))
	for i := range raws {
		raws[i] = d.Bytes(int(d.U32()))
	}
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	if len(hbytes) > 0 {
		s.Histogram = &hist.Histogram{}
		if err := s.Histogram.UnmarshalBinary(hbytes); err != nil {
			return nil, nil, err
		}
	}
	blocks, err := sketch.DecodeBlocks(raws)
	if err != nil {
		return nil, nil, err
	}
	s.Sketches = blocks
	rest := d.Rest()
	s.enc = append([]byte(nil), buf[:len(buf)-len(rest)]...)
	return s, rest, nil
}
