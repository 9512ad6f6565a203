package durable

import (
	"encoding/binary"
	"errors"
	"testing"

	"streamhist/internal/page"
)

// Every strict prefix of each record type's encoding fails with
// ErrCorruptRecord, without a panic: recovery stops at a torn tail whatever
// byte the tear fell on. So does every record whose framing and checksum are
// sound but whose payload stops short of its type's layout.
func TestDecodeRecordRejectsEveryPrefix(t *testing.T) {
	frame := func(typ uint8, payload []byte) []byte {
		b := binary.LittleEndian.AppendUint16(nil, recordMagic)
		b = append(b, typ, 0)
		b = binary.LittleEndian.AppendUint64(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = append(b, payload...)
		return binary.LittleEndian.AppendUint32(b, page.Checksum(b))
	}
	for _, r := range []Record{
		{Type: RecPut, LSN: 3, Seq: 2, Table: "lineitem", Column: "l_tax", Stats: []byte{1, 2, 3, 4}},
		{Type: RecBump, LSN: 4, Seq: 3, Table: "orders", Version: 9},
		{Type: RecScanStart, LSN: 5, ScanID: 1, Pages: 7, Table: "part", Column: "p_size"},
		{Type: RecScanProgress, LSN: 6, ScanID: 1, Pages: 128},
		{Type: RecScanEnd, LSN: 7, ScanID: 1, Pages: 256},
		{Type: RecCheckpoint, LSN: 8, Seq: 5, Lossy: true, Count: 2},
	} {
		enc := AppendRecord(nil, r)
		if back, n, err := DecodeRecord(enc); err != nil || n != len(enc) || back.Type != r.Type || back.Table != r.Table {
			t.Fatalf("type %d: whole record decoded to %+v, %d bytes, err %v", r.Type, back, n, err)
		}
		for n := 0; n < len(enc); n++ {
			if _, _, err := DecodeRecord(enc[:n]); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("type %d: %d-byte prefix of %d: got %v, want ErrCorruptRecord", r.Type, n, len(enc), err)
			}
		}
		// A put's entry bytes are carried opaquely, so its payload may
		// end anywhere inside them.
		payload := enc[recordHeaderSize : len(enc)-recordTrailerLen]
		if _, _, err := DecodeRecord(frame(r.Type, payload)); err != nil {
			t.Fatalf("type %d: reframed whole payload: %v", r.Type, err)
		}
		for n := 0; n < len(payload)-len(r.Stats); n++ {
			if _, _, err := DecodeRecord(frame(r.Type, payload[:n])); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("type %d: framed %d-byte payload prefix: got %v, want ErrCorruptRecord", r.Type, n, err)
			}
		}
	}
}
