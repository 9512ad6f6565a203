package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"streamhist/internal/page"
	"streamhist/internal/wire"
)

// WAL record framing. Every record is self-delimiting and self-verifying so
// recovery can walk a segment byte by byte and stop exactly at the first
// torn or corrupted record:
//
//	offset  field
//	0:2     magic uint16 = 0x4C57 ("WL")
//	2       type uint8
//	3       flags uint8 (reserved, must be 0)
//	4:12    lsn uint64 (global append sequence, shared by all record types)
//	12:16   payload length uint32
//	16:     payload
//	+4      CRC32C over everything above (header + payload)
//
// Catalog-mutation records (put, bump) additionally carry a dense mutation
// sequence number as the first payload field. The LSN orders the whole log;
// the mutation sequence is contiguous across puts and bumps only, so a
// replayer can detect a dropped mutation (queue overflow under a saturated
// disk, an injected torn write) as a numeric gap and truncate the replay
// there — the recovered catalog is always a prefix of the mutation history,
// never a history with holes.
//
// Payload layouts by type:
//
//	RecPut          seq u64, table str16, column str16, entry (dbms.AppendColumnStats)
//	RecBump         seq u64, table str16, version u64
//	RecScanStart    scanID u64, startPage u32, table str16, column str16
//	RecScanProgress scanID u64, pages u32
//	RecScanEnd      scanID u64, pages u32
//	RecCheckpoint   seq u64, flags u8 (bit0: lossy), count u32
//
// (str16 = uint16 length + bytes.) RecCheckpoint heads a checkpoint file
// (checkpoint.go) and appears nowhere else; its lsn and seq are the base the
// file folds, and count is the number of records after it.
const (
	// RecPut is a full replacement of one column's catalog entry.
	RecPut uint8 = 1
	// RecBump is a table-version bump carrying the new absolute counter.
	RecBump uint8 = 2
	// RecScanStart opens an in-flight scan journal entry.
	RecScanStart uint8 = 3
	// RecScanProgress advances a scan's delivered-pages high-water mark
	// (recorded at frame granularity).
	RecScanProgress uint8 = 4
	// RecScanEnd closes a scan journal entry.
	RecScanEnd uint8 = 5
	// RecCheckpoint heads a checkpoint file.
	RecCheckpoint uint8 = 6
)

const (
	flagLossy uint8 = 1 << 0

	recordMagic      uint16 = 0x4C57
	recordHeaderSize        = 16
	recordTrailerLen        = 4
	// MaxRecordPayload bounds one WAL record's payload; a catalog entry is
	// a histogram plus a few sketch blocks, far below this. The bound keeps
	// a corrupted length field from asking the decoder for gigabytes.
	MaxRecordPayload = 1 << 24
)

// ErrCorruptRecord reports a WAL record that failed framing, checksum, or
// payload validation.
var ErrCorruptRecord = errors.New("durable: corrupt WAL record")

// Record is one decoded WAL record. Fields beyond Type and LSN are
// meaningful per type (see the layout table above).
type Record struct {
	Type uint8
	LSN  uint64

	// Seq is the dense catalog-mutation sequence (RecPut, RecBump), or the
	// base sequence a checkpoint folds (RecCheckpoint).
	Seq    uint64
	Table  string
	Column string
	// Stats is the encoded dbms.ColumnStats entry of a RecPut. A decoded
	// record's Stats aliases the buffer it was decoded from.
	Stats []byte
	// Version is the new absolute table version of a RecBump.
	Version uint64

	// ScanID identifies an in-flight scan journal entry.
	ScanID uint64
	// Pages is the start page (RecScanStart) or the delivered-pages
	// high-water mark (RecScanProgress, RecScanEnd).
	Pages uint32

	// Lossy and Count are a RecCheckpoint's: whether the WAL epoch before
	// the checkpoint dropped records, and how many records follow it.
	Lossy bool
	Count uint32
}

// AppendRecord appends r's wire encoding to dst.
func AppendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, recordMagic)
	dst = append(dst, r.Type, 0)
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // payload length, patched below
	payloadStart := len(dst)
	switch r.Type {
	case RecPut:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = wire.AppendStr16(dst, r.Table)
		dst = wire.AppendStr16(dst, r.Column)
		dst = append(dst, r.Stats...)
	case RecBump:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = wire.AppendStr16(dst, r.Table)
		dst = binary.LittleEndian.AppendUint64(dst, r.Version)
	case RecScanStart:
		dst = binary.LittleEndian.AppendUint64(dst, r.ScanID)
		dst = binary.LittleEndian.AppendUint32(dst, r.Pages)
		dst = wire.AppendStr16(dst, r.Table)
		dst = wire.AppendStr16(dst, r.Column)
	case RecScanProgress, RecScanEnd:
		dst = binary.LittleEndian.AppendUint64(dst, r.ScanID)
		dst = binary.LittleEndian.AppendUint32(dst, r.Pages)
	case RecCheckpoint:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		var flags uint8
		if r.Lossy {
			flags = flagLossy
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint32(dst, r.Count)
	default:
		panic(fmt.Sprintf("durable: AppendRecord: unknown record type %d", r.Type))
	}
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(len(dst)-payloadStart))
	return binary.LittleEndian.AppendUint32(dst, page.Checksum(dst[start:]))
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the total bytes it occupied. Any framing, checksum, or payload
// defect yields ErrCorruptRecord; corrupt input never panics.
func DecodeRecord(buf []byte) (Record, int, error) {
	var r Record
	d := wire.NewDecoder(buf, ErrCorruptRecord)
	magic := d.U16()
	r.Type = d.U8()
	flags := d.U8()
	r.LSN = d.U64()
	plen := d.U32()
	if magic != recordMagic || flags != 0 || plen > MaxRecordPayload {
		d.Fail("bad header: magic %#x, flags %#x, payload length %d", magic, flags, plen)
	}
	p := wire.NewDecoder(d.Bytes(int(plen)), ErrCorruptRecord)
	sum := d.U32()
	if d.Err() != nil {
		return Record{}, 0, d.Err()
	}
	total := recordHeaderSize + int(plen) + recordTrailerLen
	if page.Checksum(buf[:total-recordTrailerLen]) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	switch r.Type {
	case RecPut:
		r.Seq = p.U64()
		r.Table = p.Str16(math.MaxUint16)
		r.Column = p.Str16(math.MaxUint16)
		// The entry bytes are validated by dbms.DecodeColumnStats at
		// apply time, which keeps its own copy; here they are carried
		// opaquely.
		r.Stats = p.Rest()
	case RecBump:
		r.Seq = p.U64()
		r.Table = p.Str16(math.MaxUint16)
		r.Version = p.U64()
	case RecScanStart:
		r.ScanID = p.U64()
		r.Pages = p.U32()
		r.Table = p.Str16(math.MaxUint16)
		r.Column = p.Str16(math.MaxUint16)
	case RecScanProgress, RecScanEnd:
		r.ScanID = p.U64()
		r.Pages = p.U32()
	case RecCheckpoint:
		r.Seq = p.U64()
		flags := p.U8()
		if flags&^flagLossy != 0 {
			p.Fail("checkpoint flags %#x", flags)
		}
		r.Lossy = flags != 0
		r.Count = p.U32()
	default:
		p.Fail("unknown type")
	}
	if err := p.Done(); err != nil {
		return Record{}, 0, fmt.Errorf("%w (type-%d payload)", err, r.Type)
	}
	return r, total, nil
}
