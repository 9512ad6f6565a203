package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"streamhist/internal/dbms"
)

// FuzzCheckpointRecovery puts arbitrary bytes in the newest checkpoint file,
// beside a valid segment, and recovers the directory. The contract: no
// panic, and every entry recovery installs — from the checkpoint or from the
// segment replayed on top of it — re-encodes to exactly the bytes it was
// decoded from.
func FuzzCheckpointRecovery(f *testing.F) {
	stats := func(salt int64) []byte {
		b, err := dbms.AppendColumnStats(nil, testStats(salt))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	var seg []byte
	seg = AppendRecord(seg, Record{Type: RecPut, LSN: 3, Seq: 2, Table: "t", Column: "b", Stats: stats(2)})
	seg = AppendRecord(seg, Record{Type: RecBump, LSN: 4, Seq: 3, Table: "t", Version: 1})
	seg = AppendRecord(seg, Record{Type: RecScanEnd, LSN: 5, ScanID: 1, Pages: 16})
	valid := appendCheckpoint(nil, Record{LSN: 2, Seq: 1},
		Record{Type: RecPut, LSN: 2, Seq: 1, Table: "t", Column: "a", Stats: stats(1)},
		Record{Type: RecScanStart, LSN: 2, ScanID: 1, Table: "t", Column: "a"},
		Record{Type: RecScanProgress, LSN: 2, ScanID: 1, Pages: 8})
	f.Add([]byte{})
	f.Add(valid)
	last := AppendRecord(nil, Record{Type: RecScanProgress, LSN: 2, ScanID: 1, Pages: 8})
	f.Add(valid[:len(valid)-len(last)]) // cut at a record boundary
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)

	// One directory per fuzzing process: the segment stays, the checkpoint
	// file is rewritten for every input.
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, seqName(segmentPrefix, 2)), seg, 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, seqName(checkpointPrefix, 2)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cat, _, err := Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		cat.Each(nil, func(table, column string, s *dbms.ColumnStats) {
			re, err := dbms.AppendColumnStats(nil, s)
			if err != nil || !bytes.Equal(re, s.Encoded()) {
				t.Fatalf("entry %s.%s does not re-encode to its %d decoded bytes (%v)", table, column, len(s.Encoded()), err)
			}
		}, func(string, uint64) {})
	})
}

// FuzzDecodeWALRecord drives arbitrary bytes through DecodeRecord with the
// same contract: no panics, and any record that decodes is canonical — the
// reported consumed length re-encodes to the identical prefix.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, Record{
		Type: RecPut, LSN: 3, Seq: 2, Table: "lineitem", Column: "l_tax",
		Stats: []byte{1, 2, 3, 4},
	}))
	f.Add(AppendRecord(nil, Record{Type: RecBump, LSN: 4, Seq: 3, Table: "orders", Version: 9}))
	f.Add(AppendRecord(nil, Record{Type: RecScanStart, LSN: 5, ScanID: 1, Table: "part", Column: "p_size"}))
	f.Add(AppendRecord(nil, Record{Type: RecScanProgress, LSN: 6, ScanID: 1, Pages: 128}))
	f.Add(AppendRecord(nil, Record{Type: RecScanEnd, LSN: 7, ScanID: 1, Pages: 256}))
	torn := AppendRecord(nil, Record{Type: RecBump, LSN: 8, Seq: 4, Table: "t", Version: 1})
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		re := AppendRecord(nil, rec)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted non-canonical record: consumed %d bytes, re-encoded %d", n, len(re))
		}
	})
}
