package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"streamhist/internal/dbms"
	"streamhist/internal/faults"
	"streamhist/internal/hist"
	"streamhist/internal/wire"
)

// testStats builds a deterministic catalog entry whose histogram content
// depends on the salt, so distinct mutations are distinguishable by bytes.
func testStats(salt int64) *dbms.ColumnStats {
	vals := make([]int64, 0, 256)
	for i := int64(0); i < 256; i++ {
		vals = append(vals, (i*7+salt)%97)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return &dbms.ColumnStats{
		Histogram: hist.BuildFromSorted(vals, hist.EquiDepth, 16, 0),
		NDistinct: 97,
		RowCount:  256 + salt,
	}
}

// catalogBytes is the tests' canonical encoding of a catalog, the oracle the
// prefix property compares by: the table versions in table order, then every
// entry's AppendColumnStats bytes in (table, column) order.
func catalogBytes(t *testing.T, c *dbms.Catalog) []byte {
	t.Helper()
	var versions, entries []byte
	nv := 0
	c.Each(nil, func(table, column string, s *dbms.ColumnStats) {
		entries = wire.AppendStr16(wire.AppendStr16(entries, table), column)
		var err error
		if entries, err = dbms.AppendColumnStats(entries, s); err != nil {
			t.Fatal(err)
		}
	}, func(table string, version uint64) {
		versions = binary.LittleEndian.AppendUint64(wire.AppendStr16(versions, table), version)
		nv++
	})
	out := binary.LittleEndian.AppendUint32(nil, uint32(nv))
	return append(append(out, versions...), entries...)
}

// appendCheckpoint encodes a checkpoint file: head (its Count set here),
// then recs.
func appendCheckpoint(dst []byte, head Record, recs ...Record) []byte {
	head.Type, head.Count = RecCheckpoint, uint32(len(recs))
	dst = AppendRecord(dst, head)
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	return dst
}

func TestDurableCrashRecoversJournaledMutations(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cat := m.Catalog()
	cat.Put("lineitem", "l_quantity", testStats(1))
	cat.Put("lineitem", "l_extendedprice", testStats(2))
	cat.BumpVersion("orders")
	cat.Put("orders", "o_totalprice", testStats(3))
	want := catalogBytes(t, cat)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Abandon() // kill -9: no final checkpoint, queue abandoned

	m2, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := catalogBytes(t, m2.Catalog()); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs from pre-crash catalog")
	}
	rep := m2.Report()
	if rep.MutationsApplied != 4 {
		t.Fatalf("MutationsApplied = %d, want 4", rep.MutationsApplied)
	}
	if rep.Truncated {
		t.Error("clean WAL reported truncated")
	}
	if m2.Catalog().Version("orders") != 1 {
		t.Error("bump record not replayed")
	}
	// The entry installed after the bump carries the bumped version.
	if s := m2.Catalog().Get("orders", "o_totalprice"); s == nil || s.Version != 1 {
		t.Error("put after bump lost its stamped version")
	}
}

// TestDurableCleanCloseLoadsFromSnapshot: a clean close leaves the whole
// state in the final checkpoint file, with nothing to replay.
func TestDurableCleanCloseLoadsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().Put("t", "a", testStats(5))
	want := catalogBytes(t, m.Catalog())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Report()
	if !rep.CheckpointLoaded || rep.CheckpointFallback || rep.CheckpointCorrupt {
		t.Fatalf("unexpected checkpoint flags: %+v", rep)
	}
	if rep.MutationsApplied != 0 {
		t.Errorf("clean close should leave nothing to replay, applied %d", rep.MutationsApplied)
	}
	if got := catalogBytes(t, m2.Catalog()); !bytes.Equal(got, want) {
		t.Fatal("checkpoint-loaded catalog differs")
	}
}

// TestDurableTornTailTruncates hand-builds a segment whose third record is
// torn and whose fourth is intact: replay must keep the first two, stop at
// the tear, and — because the tail beyond a tear cannot be trusted to
// connect to the prefix — refuse the post-gap mutation.
func TestDurableTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	stats := func(salt int64) []byte {
		b, err := dbms.AppendColumnStats(nil, testStats(salt))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var seg []byte
	seg = AppendRecord(seg, Record{Type: RecPut, LSN: 1, Seq: 1, Table: "t", Column: "a", Stats: stats(1)})
	seg = AppendRecord(seg, Record{Type: RecPut, LSN: 2, Seq: 2, Table: "t", Column: "b", Stats: stats(2)})
	torn := AppendRecord(nil, Record{Type: RecPut, LSN: 3, Seq: 3, Table: "t", Column: "c", Stats: stats(3)})
	seg = append(seg, torn[:len(torn)/2]...)
	if err := os.WriteFile(filepath.Join(dir, seqName(segmentPrefix, 1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	// A later segment holds a post-tear mutation: its sequence (4) gaps
	// over the torn 3, so it must not be applied.
	seg2 := AppendRecord(nil, Record{Type: RecPut, LSN: 4, Seq: 4, Table: "t", Column: "d", Stats: stats(4)})
	if err := os.WriteFile(filepath.Join(dir, seqName(segmentPrefix, 2)), seg2, 0o644); err != nil {
		t.Fatal(err)
	}

	cat, rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("torn tail not reported")
	}
	if rep.MutationsApplied != 2 {
		t.Fatalf("applied %d mutations, want 2", rep.MutationsApplied)
	}
	if cat.Get("t", "a") == nil || cat.Get("t", "b") == nil {
		t.Error("pre-tear entries missing")
	}
	if cat.Get("t", "c") != nil || cat.Get("t", "d") != nil {
		t.Error("post-tear entry applied: recovered state is not a prefix")
	}
}

func TestDurableScanJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	id := m.ScanStarted("lineitem", "l_quantity", 0)
	m.ScanProgress(id, 8)
	m.ScanProgress(id, 16)
	done := m.ScanStarted("lineitem", "l_tax", 0)
	m.ScanEnded(done, 24)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Abandon()

	m2, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	open := m2.Report().OpenScans
	if len(open) != 1 {
		t.Fatalf("recovered %d open scans, want 1: %+v", len(open), open)
	}
	if open[0].Table != "lineitem" || open[0].Column != "l_quantity" || open[0].Pages != 16 {
		t.Fatalf("recovered scan = %+v", open[0])
	}
	// New scan IDs never collide with recovered ones.
	if nid := m2.ScanStarted("x", "y", 0); nid <= open[0].ID {
		t.Errorf("new scan id %d not past recovered %d", nid, open[0].ID)
	}
}

// TestDurableSnapshotFallbackToPrev damages the newest checkpoint file after
// it was verified — cut at a record boundary, or one byte flipped — and
// requires recovery to fall back to the previous checkpoint and rebuild the
// rest from the segments the GC kept for exactly this case.
func TestDurableSnapshotFallbackToPrev(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, buf []byte) []byte
	}{
		{"cut-at-record-boundary", func(t *testing.T, buf []byte) []byte {
			last := 0
			for off := 0; off < len(buf); {
				_, n, err := DecodeRecord(buf[off:])
				if err != nil {
					t.Fatal(err)
				}
				last, off = off, off+n
			}
			return buf[:last]
		}},
		{"bit-flip-after-verify", func(t *testing.T, buf []byte) []byte {
			buf[len(buf)/2] ^= 0x01
			return buf
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(dir, Options{CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			m.Catalog().Put("t", "a", testStats(1))
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			m.Catalog().Put("t", "b", testStats(2))
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			m.Catalog().BumpVersion("t")
			m.Catalog().Put("t", "c", testStats(3))
			want := catalogBytes(t, m.Catalog())
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.Abandon()

			ckpts, err := listSeqs(dir, checkpointPrefix)
			if err != nil || len(ckpts) < 2 {
				t.Fatalf("checkpoint files %v (%v), want at least two", ckpts, err)
			}
			newest := filepath.Join(dir, seqName(checkpointPrefix, ckpts[len(ckpts)-1]))
			buf, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest, tc.damage(t, buf), 0o644); err != nil {
				t.Fatal(err)
			}

			cat, rep, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.CheckpointCorrupt || !rep.CheckpointFallback || !rep.CheckpointLoaded || rep.Truncated {
				t.Fatalf("fallback flags wrong: %+v", rep)
			}
			if got := catalogBytes(t, cat); !bytes.Equal(got, want) {
				t.Fatal("fallback recovery did not reconstruct the full state")
			}
		})
	}
}

// TestDurableFailedCheckpointsKeepFallback is the regression test for two
// checkpoints failing in a row: each must delete its own file and collect
// nothing, so a crash afterwards still recovers every acknowledged entry
// from the last good checkpoint and the segments after it.
func TestDurableFailedCheckpointsKeepFallback(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cat := m.Catalog()
	corrupt := faults.New(1, faults.Profile{faults.SnapCorrupt: 1})
	for i, col := range []string{"c1", "c2", "c3", "c4"} {
		cat.Put("t", col, testStats(int64(i)))
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		switch col {
		case "c1", "c2":
			if err := m.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after %s: %v", col, err)
			}
		case "c3":
			m.opts.Faults = corrupt
			for k := 0; k < 2; k++ {
				if err := m.Checkpoint(); !errors.Is(err, errCheckpointUnverified) {
					t.Fatalf("corrupted checkpoint %d: got %v, want errCheckpointUnverified", k, err)
				}
			}
			m.opts.Faults = nil
		}
	}
	want := catalogBytes(t, cat)
	m.Abandon()

	got, rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"c1", "c2", "c3", "c4"} {
		if got.Get("t", col) == nil {
			t.Errorf("entry %s lost (report %+v)", col, rep)
		}
	}
	if !bytes.Equal(catalogBytes(t, got), want) || rep.Truncated || !rep.CheckpointLoaded {
		t.Fatalf("recovered state differs from the acknowledged one (report %+v)", rep)
	}
}

func TestDurableRecordRoundTrip(t *testing.T) {
	stats, err := dbms.AppendColumnStats(nil, testStats(9))
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecPut, LSN: 7, Seq: 3, Table: "lineitem", Column: "l_quantity", Stats: stats},
		{Type: RecBump, LSN: 8, Seq: 4, Table: "orders", Version: 12},
		{Type: RecScanStart, LSN: 9, ScanID: 5, Pages: 4, Table: "t", Column: "c"},
		{Type: RecScanProgress, LSN: 10, ScanID: 5, Pages: 12},
		{Type: RecScanEnd, LSN: 11, ScanID: 5, Pages: 20},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	off := 0
	for i, wantRec := range recs {
		got, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		if got.Type != wantRec.Type || got.LSN != wantRec.LSN || got.Seq != wantRec.Seq ||
			got.Table != wantRec.Table || got.Column != wantRec.Column ||
			got.Version != wantRec.Version || got.ScanID != wantRec.ScanID || got.Pages != wantRec.Pages {
			t.Fatalf("record %d: got %+v want %+v", i, got, wantRec)
		}
		if !bytes.Equal(got.Stats, wantRec.Stats) {
			t.Fatalf("record %d: stats bytes differ", i)
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
	// Every single-byte corruption is caught.
	one := AppendRecord(nil, recs[0])
	for i := range one {
		mut := append([]byte(nil), one...)
		mut[i] ^= 0x01
		if _, _, err := DecodeRecord(mut); err == nil {
			t.Fatalf("byte %d flip not detected", i)
		}
	}
}

// TestDurableSnapshotEncodeDecode covers the checkpoint file: a file loads
// the state it holds, and every single-byte corruption and every
// truncation, at a record boundary or inside a record, is rejected.
func TestDurableSnapshotEncodeDecode(t *testing.T) {
	stats, err := dbms.AppendColumnStats(nil, testStats(4))
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecPut, LSN: 42, Seq: 17, Table: "t", Column: "a", Stats: stats},
		{Type: RecBump, LSN: 42, Seq: 17, Table: "t", Version: 3},
		{Type: RecScanStart, LSN: 42, ScanID: 2, Pages: 8, Table: "t", Column: "b"},
		{Type: RecScanProgress, LSN: 42, ScanID: 2, Pages: 16},
	}
	enc := appendCheckpoint(nil, Record{LSN: 42, Seq: 17, Lossy: true}, recs...)
	cat, scans, head, err := loadCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if head.LSN != 42 || head.Seq != 17 || !head.Lossy || head.Count != uint32(len(recs)) {
		t.Fatalf("round trip: head %+v", head)
	}
	if s := cat.Get("t", "a"); s == nil || !bytes.Equal(s.Encoded(), stats) || cat.Version("t") != 3 {
		t.Fatal("checkpoint did not load its entry and version")
	}
	if sc := scans[2]; sc == nil || sc.Start != 8 || sc.Pages != 16 || sc.Column != "b" {
		t.Fatalf("checkpoint scan = %+v", sc)
	}
	// Every single-byte corruption is caught.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		if _, _, _, err := loadCheckpoint(mut); err == nil {
			t.Fatalf("byte %d flip not detected", i)
		}
	}
	// Truncations are caught, at every record boundary too.
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := loadCheckpoint(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}
