package tpch

import (
	"testing"

	"streamhist/internal/datagen"
	"streamhist/internal/table"
)

func TestLineitemSchemaShape(t *testing.T) {
	s := LineitemSchema()
	if s.NumColumns() != 8 {
		t.Fatalf("columns = %d", s.NumColumns())
	}
	if s.Column(s.ColumnIndex("l_extendedprice")).Type != table.Decimal {
		t.Error("l_extendedprice should be Decimal")
	}
	if s.RowWidth() != 64 {
		t.Errorf("row width = %d, want 64", s.RowWidth())
	}
}

func TestLineitemDeterministic(t *testing.T) {
	a := Lineitem(1000, 1, 42)
	b := Lineitem(1000, 1, 42)
	for i := 0; i < 1000; i++ {
		for c := 0; c < 8; c++ {
			if a.Value(i, c) != b.Value(i, c) {
				t.Fatalf("row %d col %d differs across same-seed runs", i, c)
			}
		}
	}
	c := Lineitem(1000, 1, 43)
	same := true
	for i := 0; i < 100 && same; i++ {
		if a.Value(i, 1) != c.Value(i, 1) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical partkeys")
	}
}

func TestLineitemDistributions(t *testing.T) {
	rel := Lineitem(50000, 1, 1)
	qIdx := rel.Schema.ColumnIndex("l_quantity")
	pIdx := rel.Schema.ColumnIndex("l_extendedprice")
	okIdx := rel.Schema.ColumnIndex("l_orderkey")

	quantities := make(map[int64]bool)
	prevOrder := int64(0)
	for i := 0; i < rel.NumRows(); i++ {
		q := rel.Value(i, qIdx)
		if q < 1 || q > 50 {
			t.Fatalf("l_quantity = %d out of [1,50]", q)
		}
		quantities[q] = true
		p := rel.Value(i, pIdx)
		if p < 90000 || p > 50*(90000+20000+100*999) {
			t.Fatalf("l_extendedprice = %d implausible", p)
		}
		ok := rel.Value(i, okIdx)
		if ok < prevOrder {
			t.Fatal("l_orderkey not non-decreasing")
		}
		prevOrder = ok
	}
	// Low cardinality for quantity (Fig 19's point: < 100 distinct).
	if len(quantities) > 50 {
		t.Errorf("quantity cardinality = %d", len(quantities))
	}
	// High cardinality for extendedprice.
	prices := datagen.Counts(rel.Column(pIdx))
	if len(prices) < 10000 {
		t.Errorf("extendedprice cardinality = %d, expected high", len(prices))
	}
}

func TestLineitemOrderkeySparse(t *testing.T) {
	rel := Lineitem(10000, 1, 2)
	keys := datagen.Counts(rel.ColumnByName("l_orderkey"))
	// Lineitems per order must be 1..7.
	for k, c := range keys {
		if c < 1 || c > 7 {
			t.Fatalf("order %d has %d lineitems", k, c)
		}
	}
}

func TestLineitemColumnVariant(t *testing.T) {
	full := Lineitem(2000, 1, 3)
	one := LineitemColumn("l_quantity", 2000, 1, 3)
	if one.Schema.NumColumns() != 1 {
		t.Fatalf("columns = %d", one.Schema.NumColumns())
	}
	wantCol := full.ColumnByName("l_quantity")
	gotCol := one.ColumnByName("l_quantity")
	for i := range wantCol {
		if wantCol[i] != gotCol[i] {
			t.Fatal("one-column variant diverges from full table")
		}
	}
	if one.Schema.RowWidth() != 8 {
		t.Errorf("one-column row width = %d", one.Schema.RowWidth())
	}
}

func TestCustomer(t *testing.T) {
	rel := Customer(5000, 4)
	for i := 0; i < rel.NumRows(); i++ {
		if rel.Value(i, 0) != int64(i+1) {
			t.Fatal("custkey not sequential")
		}
		bal := rel.Value(i, 2)
		if bal < -99999 || bal > 999999 {
			t.Fatalf("acctbal = %d out of range", bal)
		}
		nk := rel.Value(i, 1)
		if nk < 0 || nk > 24 {
			t.Fatalf("nationkey = %d", nk)
		}
	}
}

func TestInflateValue(t *testing.T) {
	rel := Lineitem(10000, 1, 5)
	const spike = 200100
	before := datagen.Counts(rel.ColumnByName("l_extendedprice"))[spike]
	InflateValue(rel, "l_extendedprice", spike, 2000, 6)
	after := datagen.Counts(rel.ColumnByName("l_extendedprice"))[spike]
	if after < 2000 {
		t.Errorf("spike count = %d (was %d), want >= 2000", after, before)
	}
	if rel.NumRows() != 10000 {
		t.Error("inflation changed the row count")
	}
}

func TestInflateValueTooMany(t *testing.T) {
	rel := Lineitem(10, 1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InflateValue(rel, "l_extendedprice", 1, 11, 8)
}

func TestSyntheticZipf(t *testing.T) {
	rel := Synthetic(30000, 8, 2048, 1.0, 9)
	if rel.Schema.NumColumns() != 8 {
		t.Fatalf("columns = %d", rel.Schema.NumColumns())
	}
	col := rel.Column(0)
	counts := datagen.Counts(col)
	if len(counts) > 2048 {
		t.Errorf("cardinality %d exceeds 2048", len(counts))
	}
	// Skewed: the most frequent value should hold far more than 1/2048 of
	// the mass.
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/30000 < 5.0/2048 {
		t.Errorf("top value share %.4f too small for Zipf 1.0", float64(max)/30000)
	}
}

func TestSyntheticUniform(t *testing.T) {
	rel := Synthetic(20000, 2, 100, 0, 10)
	counts := datagen.Counts(rel.Column(1))
	for v, c := range counts {
		if c < 100 || c > 320 {
			t.Errorf("value %d count %d far from uniform 200", v, c)
		}
	}
}

func TestOneColumnSchemaUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneColumnSchema("nope")
}
