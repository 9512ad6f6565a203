package dbms

import (
	"bytes"
	"errors"
	"strings"
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

func TestCatalogPersistenceRoundTrip(t *testing.T) {
	cat := persistedCatalog(t)
	data, err := cat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewCatalog()
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ tbl, col string }{
		{"lineitem", "l_quantity"},
		{"lineitem", "l_extendedprice"},
		{"customer", "c_acctbal"},
	} {
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
	}
	// Staleness semantics preserved: versions were restored, so nothing
	// is stale.
	if restored.Stale("lineitem", "l_quantity") {
		t.Error("restored stats stale")
	}
}

func TestCatalogPersistenceDeterministic(t *testing.T) {
	cat := persistedCatalog(t)
	a, err := cat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at byte %d", i)
		}
	}
}

func TestCatalogUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {1, 2, 3}, make([]byte, 16)}
	for i, data := range cases {
		c := NewCatalog()
		if err := c.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good, _ := persistedCatalog(t).MarshalBinary()
	c := NewCatalog()
	if err := c.UnmarshalBinary(good[:len(good)-3]); err == nil {
		t.Error("truncated image accepted")
	}
	if err := c.UnmarshalBinary(append(good, 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A v1 image is refused by the version its magic names, not migrated.
	err := c.UnmarshalBinary([]byte("TATS\x00\x00\x00\x00"))
	if !errors.Is(err, ErrCorruptCatalog) || !strings.Contains(err.Error(), `"TATS"`) {
		t.Errorf("v1 image: got %v, want ErrCorruptCatalog naming the version", err)
	}
}

// sketchedCatalog builds a catalog whose entries carry sketch blocks and
// whose table versions run ahead of the entries (a bump after the last
// gather), so the v2 round trip has something v1 could not represent.
func sketchedCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := persistedCatalog(t)
	ch := sketch.NewChain(sketch.DefaultChainSpec())
	for v := int64(0); v < 500; v++ {
		ch.Push(v % 97)
	}
	s := cat.Get("lineitem", "l_quantity")
	s.Sketches = ch.Blocks()
	cat.BumpVersion("customer") // version floor now ahead of every entry
	return cat
}

func TestCatalogPersistenceV2SketchesAndVersions(t *testing.T) {
	cat := sketchedCatalog(t)
	data, err := cat.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewCatalog()
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
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
	// The post-gather bump survives: v1 inferred versions from entries and
	// would have lost it, so the restored stats would look fresh.
	if got, want := restored.Version("customer"), cat.Version("customer"); got != want {
		t.Fatalf("customer version: got %d want %d", got, want)
	}
	if !restored.Stale("customer", "c_acctbal") {
		t.Error("bumped table not stale after restore")
	}
	// Marshal of the restored catalog is bit-identical: restore is lossless.
	data2, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("restored catalog re-encodes differently")
	}
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

func TestCatalogPersistEmpty(t *testing.T) {
	empty := NewCatalog()
	data, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if c.Get("x", "y") != nil {
		t.Error("phantom entry")
	}
}
