package server_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

// TestServedStatsFoldedSketches: a served scan completes the HLL and
// SpaceSaving blocks from the merged bin region instead of feeding them value
// by value. What STATS returns must not show it, except for the better: the
// HLL and window blocks are byte for byte those of a chain that streamed the
// column in storage order, every block still accounts for every row, and the
// heavy hitters — k = 16 against 50 to thousands of distinct values — are the
// column's true top-k with Err 0.
func TestServedStatsFoldedSketches(t *testing.T) {
	rel := tpch.Lineitem(12_000, 1, 23)
	srv := server.NewForTest(server.Config{ShardLanes: 3}, server.TestConfig{SideStallTimeout: time.Minute})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := pipeClient(srv)
	defer c.Close()

	for _, column := range []string{"l_quantity", "l_extendedprice", "l_orderkey"} {
		col := rel.ColumnByName(column)
		ref := sketch.NewChain(sketch.DefaultChainSpec())
		ref.PushAll(col)
		want, err := sketch.EncodeBlocks(ref.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		freq := make(map[int64]int64)
		for _, v := range col {
			freq[v]++
		}

		sum, err := c.Scan("lineitem", column, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Refreshed || sum.Degraded {
			t.Fatalf("%s: scan summary %+v", column, sum)
		}
		st, err := c.Stats("lineitem", column)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sketch.EncodeBlocks(st.Sketches)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: STATS carried %d blocks", column, len(got))
		}
		if !bytes.Equal(got[0], want[0]) {
			t.Errorf("%s: HLL block differs from the streamed chain's", column)
		}
		if !bytes.Equal(got[2], want[2]) {
			t.Errorf("%s: window block differs from the streamed chain's", column)
		}
		ss := st.Sketches.Heavy()
		if ss.Items() != int64(len(col)) || ss.Degraded() {
			t.Errorf("%s: heavy hitters booked %d of %d values, degraded %v", column, ss.Items(), len(col), ss.Degraded())
		}
		top := ss.Top(0)
		if len(top) != ss.Capacity() {
			t.Fatalf("%s: %d heavy hitters, want %d", column, len(top), ss.Capacity())
		}
		for _, hh := range top {
			if hh.Err != 0 || hh.Count != freq[hh.Value] {
				t.Errorf("%s: value %d count %d err %d, true frequency %d", column, hh.Value, hh.Count, hh.Err, freq[hh.Value])
			}
			delete(freq, hh.Value)
		}
		for v, f := range freq {
			if f > top[len(top)-1].Count {
				t.Errorf("%s: untracked value %d occurs %d times, above the summary's minimum", column, v, f)
			}
		}
	}
}
