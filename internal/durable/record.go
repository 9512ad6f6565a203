package durable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"streamhist/internal/page"
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

func appendStr16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readStr16(buf []byte) (string, []byte, bool) {
	if len(buf) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+n {
		return "", nil, false
	}
	return string(buf[2 : 2+n]), buf[2+n:], true
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
		dst = appendStr16(dst, r.Table)
		dst = appendStr16(dst, r.Column)
		dst = append(dst, r.Stats...)
	case RecBump:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = appendStr16(dst, r.Table)
		dst = binary.LittleEndian.AppendUint64(dst, r.Version)
	case RecScanStart:
		dst = binary.LittleEndian.AppendUint64(dst, r.ScanID)
		dst = binary.LittleEndian.AppendUint32(dst, r.Pages)
		dst = appendStr16(dst, r.Table)
		dst = appendStr16(dst, r.Column)
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
	if len(buf) < recordHeaderSize+recordTrailerLen {
		return r, 0, fmt.Errorf("%w: truncated header", ErrCorruptRecord)
	}
	if binary.LittleEndian.Uint16(buf) != recordMagic {
		return r, 0, fmt.Errorf("%w: bad magic", ErrCorruptRecord)
	}
	r.Type = buf[2]
	if buf[3] != 0 {
		return r, 0, fmt.Errorf("%w: nonzero flags", ErrCorruptRecord)
	}
	r.LSN = binary.LittleEndian.Uint64(buf[4:])
	plen := binary.LittleEndian.Uint32(buf[12:])
	if plen > MaxRecordPayload {
		return r, 0, fmt.Errorf("%w: payload length %d exceeds bound", ErrCorruptRecord, plen)
	}
	total := recordHeaderSize + int(plen) + recordTrailerLen
	if len(buf) < total {
		return r, 0, fmt.Errorf("%w: truncated payload", ErrCorruptRecord)
	}
	body := buf[:recordHeaderSize+int(plen)]
	if page.Checksum(body) != binary.LittleEndian.Uint32(buf[recordHeaderSize+int(plen):]) {
		return r, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	p := body[recordHeaderSize:]
	ok := false
	switch r.Type {
	case RecPut:
		if len(p) < 8 {
			break
		}
		r.Seq = binary.LittleEndian.Uint64(p)
		p = p[8:]
		if r.Table, p, ok = readStr16(p); !ok {
			break
		}
		if r.Column, p, ok = readStr16(p); !ok {
			break
		}
		// The entry bytes are validated by dbms.DecodeColumnStats at
		// apply time, which keeps its own copy; here they are carried
		// opaquely.
		r.Stats = p
		ok = true
	case RecBump:
		if len(p) < 8 {
			break
		}
		r.Seq = binary.LittleEndian.Uint64(p)
		p = p[8:]
		if r.Table, p, ok = readStr16(p); !ok {
			break
		}
		if len(p) != 8 {
			ok = false
			break
		}
		r.Version = binary.LittleEndian.Uint64(p)
		ok = true
	case RecScanStart:
		if len(p) < 12 {
			break
		}
		r.ScanID = binary.LittleEndian.Uint64(p)
		r.Pages = binary.LittleEndian.Uint32(p[8:])
		p = p[12:]
		if r.Table, p, ok = readStr16(p); !ok {
			break
		}
		if r.Column, p, ok = readStr16(p); !ok {
			break
		}
		ok = len(p) == 0
	case RecScanProgress, RecScanEnd:
		if len(p) != 12 {
			break
		}
		r.ScanID = binary.LittleEndian.Uint64(p)
		r.Pages = binary.LittleEndian.Uint32(p[8:])
		ok = true
	case RecCheckpoint:
		if len(p) != 13 || p[8]&^flagLossy != 0 {
			break
		}
		r.Seq = binary.LittleEndian.Uint64(p)
		r.Lossy = p[8] != 0
		r.Count = binary.LittleEndian.Uint32(p[9:])
		ok = true
	}
	if !ok {
		return Record{}, 0, fmt.Errorf("%w: bad type-%d payload", ErrCorruptRecord, r.Type)
	}
	return r, total, nil
}
