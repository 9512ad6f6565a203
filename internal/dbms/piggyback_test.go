package dbms

import (
	"testing"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/hist"
	"streamhist/internal/tpch"
)

func TestPiggybackQueryResultUnchanged(t *testing.T) {
	tbl := NewTable(tpch.Lineitem(20000, 1, 91), InMemory)
	pi := tbl.Rel.Schema.ColumnIndex("l_extendedprice")
	target := tbl.Rel.Value(5, pi)

	plain := FilterEqualsProject(tbl, "l_extendedprice", target, "l_tax", "l_extendedprice")
	pb := FilterEqualsProjectPiggyback(tbl, "l_extendedprice", target, "l_tax", "l_extendedprice", 64, 16)
	if len(plain) != len(pb.Values) {
		t.Fatalf("piggyback changed the query result: %d vs %d values", len(pb.Values), len(plain))
	}
	for i := range plain {
		if plain[i] != pb.Values[i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

func TestPiggybackStatisticsCorrect(t *testing.T) {
	tbl := NewTable(tpch.Lineitem(20000, 1, 92), InMemory)
	pb := FilterEqualsProjectPiggyback(tbl, "l_quantity", 25, "l_tax", "l_extendedprice", 64, 16)

	truth := bins.Build(tbl.Rel.ColumnByName("l_quantity"), 1)
	want := hist.BuildCompressed(truth, 16, 64)
	if pb.Histogram.Total != truth.Total() {
		t.Errorf("total = %d, want %d", pb.Histogram.Total, truth.Total())
	}
	if pb.NDistinct != int64(truth.Cardinality()) {
		t.Errorf("ndistinct = %d, want %d", pb.NDistinct, truth.Cardinality())
	}
	if len(pb.Histogram.Buckets) != len(want.Buckets) {
		t.Fatalf("buckets %d != %d", len(pb.Histogram.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if pb.Histogram.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d differs", i)
		}
	}
	for i := range want.Frequent {
		if pb.Histogram.Frequent[i] != want.Frequent[i] {
			t.Errorf("frequent %d differs", i)
		}
	}
}

func TestPiggybackSlowsTheScan(t *testing.T) {
	// The method's documented drawback: the combined pass costs more than
	// the plain filter. Compare medians over several runs to tame noise.
	tbl := NewTable(tpch.Lineitem(200_000, 1, 93), InMemory)
	pi := tbl.Rel.Schema.ColumnIndex("l_extendedprice")
	target := tbl.Rel.Value(0, pi)

	const runs = 5
	med := func(f func()) float64 {
		times := make([]float64, runs)
		for i := range times {
			start := time.Now()
			f()
			times[i] = time.Since(start).Seconds()
		}
		// insertion sort, take middle
		for i := 1; i < len(times); i++ {
			for j := i; j > 0 && times[j] < times[j-1]; j-- {
				times[j], times[j-1] = times[j-1], times[j]
			}
		}
		return times[runs/2]
	}
	plain := med(func() { FilterEqualsProject(tbl, "l_extendedprice", target, "l_tax", "l_extendedprice") })
	piggy := med(func() {
		FilterEqualsProjectPiggyback(tbl, "l_extendedprice", target, "l_tax", "l_extendedprice", 64, 16)
	})
	if piggy <= plain {
		t.Errorf("piggyback (%.2gs) not slower than plain scan (%.2gs)", piggy, plain)
	}
}

func TestPiggybackUnknownColumnPanics(t *testing.T) {
	tbl := NewTable(tpch.Lineitem(10, 1, 94), InMemory)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FilterEqualsProjectPiggyback(tbl, "nope", 1, "l_tax", "l_extendedprice", 8, 4)
}
