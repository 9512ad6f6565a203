package stream

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"streamhist/internal/sketch"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

// streamedReference is what the chain produced before blocks were folded from
// the bins, and what a standalone chain still produces: every value pushed
// through every block, in storage order.
func streamedReference(t *testing.T, spec sketch.ChainSpec, col []int64) (raws [][]byte, cycles int64) {
	t.Helper()
	ref := sketch.NewChain(spec)
	ref.PushAll(col)
	return mustEncodeSketches(t, ref.Blocks()), ref.TotalCycles()
}

func frequencies(col []int64) map[int64]int64 {
	freq := make(map[int64]int64)
	for _, v := range col {
		freq[v]++
	}
	return freq
}

// checkExactTopK asserts the summary is the exact top-k of the column: every
// entry exact, and no untracked value more frequent than a tracked one.
func checkExactTopK(t *testing.T, where string, ss *sketch.SpaceSaving, freq map[int64]int64) {
	t.Helper()
	top := ss.Top(0)
	if want := min(ss.Capacity(), len(freq)); len(top) != want {
		t.Fatalf("%s: %d heavy hitters, want %d", where, len(top), want)
	}
	tracked := make(map[int64]bool, len(top))
	for _, hh := range top {
		if hh.Err != 0 || hh.Count != freq[hh.Value] {
			t.Fatalf("%s: value %d reported count %d err %d, true frequency %d",
				where, hh.Value, hh.Count, hh.Err, freq[hh.Value])
		}
		tracked[hh.Value] = true
	}
	floor := top[len(top)-1].Count
	for v, f := range freq {
		if !tracked[v] && f > floor {
			t.Fatalf("%s: untracked value %d occurs %d times, above the summary's minimum %d", where, v, f, floor)
		}
	}
}

// TestFoldEqualsStream: on a lossless bin region the order-insensitive blocks
// are completed from the bins instead of being fed value by value. Whatever
// the column regime, the shard count, and whether the lanes' blocks come fresh
// or out of the pools, the HLL and window bytes and every simulated cycle must
// be those of a chain that streamed the column, and the heavy hitters must be
// exact — hence identical across shard counts, which a streamed summary with
// k below the distinct count never was.
func TestFoldEqualsStream(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 97)
	spec := sketch.DefaultChainSpec() // k = 16, below every column's distinct count
	for _, column := range []string{"l_quantity", "l_extendedprice", "l_orderkey"} {
		col := rel.ColumnByName(column)
		want, wantCycles := streamedReference(t, spec, col)
		freq := frequencies(col)

		check := func(where string, blocks sketch.Blocks, cycles int64) []byte {
			t.Helper()
			got := mustEncodeSketches(t, blocks)
			if !bytes.Equal(got[0], want[0]) {
				t.Fatalf("%s: HLL bytes differ from the streamed chain's", where)
			}
			if !bytes.Equal(got[2], want[2]) {
				t.Fatalf("%s: window bytes differ from the streamed chain's", where)
			}
			if cycles != wantCycles {
				t.Fatalf("%s: sketch cycles %d, streamed chain charged %d", where, cycles, wantCycles)
			}
			checkExactTopK(t, where, blocks.Heavy(), freq)
			return got[1]
		}

		dp := mustDataPath(t, rel, column)
		dp.Sketch = spec
		serial, err := dp.Scan(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		heavy := check(column+" serial", serial.Results.Sketches, serial.Results.SketchCycles)

		for shards := 1; shards <= 16; shards++ {
			// The first scan of a geometry may build fresh blocks; the second
			// draws what the first released.
			for round := 0; round < 2; round++ {
				pdp, err := NewParallelDataPath(rel, column, PCIeGen1x8, shards)
				if err != nil {
					t.Fatal(err)
				}
				pdp.Sketch = spec
				res, err := pdp.Scan(io.Discard, 3)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s shards=%d", column, shards)
				if got := check(where, res.Results.Sketches, res.Results.SketchCycles); !bytes.Equal(got, heavy) {
					t.Fatalf("%s round %d: SpaceSaving bytes differ from the serial scan's", where, round)
				}
			}
		}
	}
}

// TestFoldObservesDroppedValues: values the preprocessor drops never reach
// the bins, so a deferred chain is shown them one by one. The HLL still comes
// out byte-identical to a streamed one; the heavy hitters stop being all
// exact — the dropped values went through a real SpaceSaving — but keep the
// summary's guarantee.
func TestFoldObservesDroppedValues(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 98)
	spec := sketch.DefaultChainSpec()
	col := rel.ColumnByName("l_quantity")
	want, wantCycles := streamedReference(t, spec, col)
	freq := frequencies(col)

	for _, shards := range []int{1, 2, 5} {
		pdp, err := NewParallelDataPath(rel, "l_quantity", PCIeGen1x8, shards)
		if err != nil {
			t.Fatal(err)
		}
		pdp.Sketch = spec
		pdp.Config.Min += 10 // l_quantity is 1..50: the ten smallest values fall off the region
		pdp.Config.Max -= 10 // and the ten largest
		res, err := pdp.Scan(io.Discard, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Results.BinnerStats.Dropped == 0 {
			t.Fatal("nothing was dropped — the test exercised nothing")
		}
		got := mustEncodeSketches(t, res.Results.Sketches)
		if !bytes.Equal(got[0], want[0]) {
			t.Fatalf("shards=%d: HLL bytes differ from the streamed chain's", shards)
		}
		if !bytes.Equal(got[2], want[2]) {
			t.Fatalf("shards=%d: window bytes differ from the streamed chain's", shards)
		}
		if res.Results.SketchCycles != wantCycles {
			t.Fatalf("shards=%d: sketch cycles %d, streamed chain charged %d", shards, res.Results.SketchCycles, wantCycles)
		}
		ss := res.Results.Sketches.Heavy()
		if ss.Items() != int64(len(col)) {
			t.Fatalf("shards=%d: heavy hitters booked %d of %d values", shards, ss.Items(), len(col))
		}
		for _, hh := range ss.Top(0) {
			if f := freq[hh.Value]; hh.Count < f || hh.Count > f+hh.Err {
				t.Fatalf("shards=%d: value %d count %d err %d breaks f ≤ Count ≤ f+Err (f = %d)",
					shards, hh.Value, hh.Count, hh.Err, f)
			}
		}
	}
}

// TestLossyDivisorStillStreams: with several values to a bin the region no
// longer holds the multiset, so nothing is deferred and all three blocks are
// the streamed ones, SpaceSaving included.
func TestLossyDivisorStillStreams(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 99)
	spec := sketch.DefaultChainSpec()
	for _, column := range []string{"l_quantity", "l_extendedprice"} {
		want, wantCycles := streamedReference(t, spec, rel.ColumnByName(column))
		dp := mustDataPath(t, rel, column)
		dp.Sketch = spec
		dp.Config.Divisor = 7
		res, err := dp.Scan(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := mustEncodeSketches(t, res.Results.Sketches)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: block %s differs from the streamed chain's under a lossy divisor",
					column, res.Results.Sketches[i].Name())
			}
		}
		if res.Results.SketchCycles != wantCycles {
			t.Fatalf("%s: sketch cycles %d, want %d", column, res.Results.SketchCycles, wantCycles)
		}
	}
}

func mustDataPath(t *testing.T, rel *table.Relation, column string) *DataPath {
	t.Helper()
	dp, err := NewDataPath(rel, column, PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}
