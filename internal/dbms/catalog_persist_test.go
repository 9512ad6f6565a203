package dbms

import (
	"bytes"
	"errors"
	"testing"

	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

func persistedCatalog(t *testing.T) *Catalog {
	t.Helper()
	db := NewDatabase(DBx())
	db.AddTable(tpch.Lineitem(10_000, 1, 101))
	db.AddTable(tpch.Customer(2_000, 102))
	for _, tc := range []struct{ tbl, col string }{
		{"lineitem", "l_quantity"},
		{"lineitem", "l_extendedprice"},
		{"customer", "c_acctbal"},
	} {
		if _, err := db.GatherStats(tc.tbl, tc.col, 100, 103); err != nil {
			t.Fatal(err)
		}
	}
	return db.Catalog
}

var persistedColumns = []struct{ tbl, col string }{
	{"lineitem", "l_quantity"},
	{"lineitem", "l_extendedprice"},
	{"customer", "c_acctbal"},
}

// restore decodes every entry of cat from its installed bytes into a fresh
// catalog, the way durable recovery rebuilds one.
func restore(t *testing.T, cat *Catalog) *Catalog {
	t.Helper()
	restored := NewCatalog()
	cat.Each(nil, func(table, column string, s *ColumnStats) {
		back, rest, err := DecodeColumnStats(s.Encoded())
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s.%s: decode: %v, %d trailing bytes", table, column, err, len(rest))
		}
		restored.RestorePut(table, column, back)
	}, restored.RestoreVersion)
	return restored
}

func TestCatalogPersistenceRoundTrip(t *testing.T) {
	cat := persistedCatalog(t)
	restored := restore(t, cat)
	for _, tc := range persistedColumns {
		orig := cat.Get(tc.tbl, tc.col)
		back := restored.Get(tc.tbl, tc.col)
		if back == nil {
			t.Fatalf("%s.%s missing after restore", tc.tbl, tc.col)
		}
		if back.NDistinct != orig.NDistinct || back.RowCount != orig.RowCount || back.Version != orig.Version {
			t.Errorf("%s.%s: metadata differs", tc.tbl, tc.col)
		}
		// Estimates identical.
		for _, v := range []int64{1, 25, 50, 200100} {
			if back.Histogram.EstimateEquals(v) != orig.Histogram.EstimateEquals(v) {
				t.Errorf("%s.%s: estimate differs at %d", tc.tbl, tc.col, v)
			}
		}
		// The decoded entry keeps its own copy of the bytes.
		if !bytes.Equal(back.Encoded(), orig.Encoded()) || &back.Encoded()[0] == &orig.Encoded()[0] {
			t.Errorf("%s.%s: decoded entry does not hold a private copy of its bytes", tc.tbl, tc.col)
		}
	}
	// Staleness semantics preserved: versions were restored, so nothing
	// is stale.
	if restored.Stale("lineitem", "l_quantity") {
		t.Error("restored stats stale")
	}
}

// TestCatalogPersistenceDeterministic: the bytes Put installs are what
// AppendColumnStats makes of the entry, every time.
func TestCatalogPersistenceDeterministic(t *testing.T) {
	cat := persistedCatalog(t)
	for _, tc := range persistedColumns {
		s := cat.Get(tc.tbl, tc.col)
		a, err := AppendColumnStats(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AppendColumnStats(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) || !bytes.Equal(a, s.Encoded()) {
			t.Fatalf("%s.%s: non-deterministic encoding", tc.tbl, tc.col)
		}
	}
}

func TestCatalogUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {1, 2, 3}, make([]byte, 16)}
	for i, data := range cases {
		if _, _, err := DecodeColumnStats(data); !errors.Is(err, ErrCorruptCatalog) {
			t.Errorf("case %d: got %v, want ErrCorruptCatalog", i, err)
		}
	}
	// Every strict prefix fails as a catalog entry, the sketch list's too:
	// the entry frames the histogram and each sketch with its length.
	good := sketchedCatalog(t).Get("lineitem", "l_quantity").Encoded()
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeColumnStats(good[:cut]); !errors.Is(err, ErrCorruptCatalog) {
			t.Fatalf("entry truncated to %d of %d bytes: got %v, want ErrCorruptCatalog", cut, len(good), err)
		}
	}
	_, rest, err := DecodeColumnStats(append(append([]byte(nil), good...), 9))
	if err != nil || len(rest) != 1 {
		t.Errorf("trailing byte: got %d bytes back, err %v; want it returned as rest", len(rest), err)
	}
}

// sketchedCatalog builds a catalog whose entries carry sketch blocks and
// whose table versions run ahead of the entries (a bump after the last
// gather).
func sketchedCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := persistedCatalog(t)
	ch := sketch.NewChain(sketch.DefaultChainSpec())
	for v := int64(0); v < 500; v++ {
		ch.Push(v % 97)
	}
	put := *cat.Get("lineitem", "l_quantity")
	put.Sketches = ch.Blocks()
	cat.Put("lineitem", "l_quantity", &put)
	cat.BumpVersion("customer") // version floor now ahead of every entry
	return cat
}

func TestCatalogPersistenceV2SketchesAndVersions(t *testing.T) {
	cat := sketchedCatalog(t)
	restored := restore(t, cat)
	// Sketch blocks survive byte-identically (canonical "SK" encoding).
	origSk, err := sketch.EncodeBlocks(cat.Get("lineitem", "l_quantity").Sketches)
	if err != nil {
		t.Fatal(err)
	}
	backSk, err := sketch.EncodeBlocks(restored.Get("lineitem", "l_quantity").Sketches)
	if err != nil {
		t.Fatal(err)
	}
	if len(origSk) == 0 || len(origSk) != len(backSk) {
		t.Fatalf("sketch blocks: %d orig vs %d restored", len(origSk), len(backSk))
	}
	for i := range origSk {
		if !bytes.Equal(origSk[i], backSk[i]) {
			t.Errorf("sketch block %d differs after restore", i)
		}
	}
	// The post-gather bump survives, so the restored stats are stale.
	if got, want := restored.Version("customer"), cat.Version("customer"); got != want {
		t.Fatalf("customer version: got %d want %d", got, want)
	}
	if !restored.Stale("customer", "c_acctbal") {
		t.Error("bumped table not stale after restore")
	}
	// Every restored entry re-encodes to the bytes it was decoded from.
	restored.Each(nil, func(table, column string, s *ColumnStats) {
		re, err := AppendColumnStats(nil, s)
		if err != nil || !bytes.Equal(re, s.Encoded()) {
			t.Errorf("%s.%s re-encodes differently (%v)", table, column, err)
		}
	}, func(string, uint64) {})
}

// recordingJournal captures the mutation stream for ordering assertions.
type recordingJournal struct {
	ops []string
}

func (j *recordingJournal) JournalPut(table, column string, s *ColumnStats) {
	j.ops = append(j.ops, "put "+table+"."+column)
}

func (j *recordingJournal) JournalBump(table string, version uint64) {
	j.ops = append(j.ops, "bump "+table)
}

func TestCatalogJournalSeesMutationsInOrder(t *testing.T) {
	cat := NewCatalog()
	j := &recordingJournal{}
	cat.SetJournal(j)
	cat.Put("t", "a", &ColumnStats{RowCount: 1})
	cat.BumpVersion("t")
	cat.Put("t", "b", &ColumnStats{RowCount: 2})
	want := []string{"put t.a", "bump t", "put t.b"}
	if len(j.ops) != len(want) {
		t.Fatalf("journal saw %v", j.ops)
	}
	for i := range want {
		if j.ops[i] != want[i] {
			t.Fatalf("journal order %v, want %v", j.ops, want)
		}
	}
	// Restore paths never notify the journal.
	j.ops = nil
	cat.RestorePut("t", "c", &ColumnStats{Version: 9})
	cat.RestoreVersion("t", 9)
	if len(j.ops) != 0 {
		t.Fatalf("restore notified journal: %v", j.ops)
	}
	if cat.Version("t") != 9 || cat.Get("t", "c").Version != 9 {
		t.Error("restore did not preserve versions")
	}
}

// TestCatalogPersistEmpty: an entry with no histogram and no sketches still
// has an encoded form, and it round-trips.
func TestCatalogPersistEmpty(t *testing.T) {
	cat := NewCatalog()
	cat.Put("x", "y", &ColumnStats{})
	back, rest, err := DecodeColumnStats(cat.Get("x", "y").Encoded())
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d trailing bytes", err, len(rest))
	}
	if back.Histogram != nil || back.Sketches != nil || back.RowCount != 0 {
		t.Errorf("empty entry decoded as %+v", back)
	}
}
