package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"streamhist/internal/datagen"
	"streamhist/internal/hw"
)

func binnerFor(t *testing.T, min, max int64, cfg BinnerConfig) *Binner {
	t.Helper()
	pre, err := RangeFor(min, max, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewBinner(cfg, pre)
}

func TestBinnerFunctionalCorrectness(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		pre, _ := RangeFor(0, 1<<16-1, 1)
		b := NewBinner(DefaultBinnerConfig(), pre)
		b.PushAll(vals)
		vec, stats := b.Finish()
		if stats.Items != int64(len(vals)) {
			return false
		}
		want := datagen.Counts(vals)
		if vec.Total() != int64(len(vals)) {
			return false
		}
		for v, c := range want {
			if vec.CountValue(v) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinnerCacheIsPureOptimisation(t *testing.T) {
	// Identical functional output with the cache enabled, disabled, or
	// tiny — the cache only changes timing.
	vals := datagen.Take(datagen.NewZipf(1, 0, 5000, 0.9, true), 20000)
	var reference []int64
	for _, cacheBytes := range []int{0, 64, 1024, 65536} {
		cfg := DefaultBinnerConfig()
		cfg.CacheBytes = cacheBytes
		pre, _ := RangeFor(0, 4999, 1)
		b := NewBinner(cfg, pre)
		b.PushAll(vals)
		vec, _ := b.Finish()
		counts := make([]int64, vec.NumBins())
		vec.Occupied(func(i int, c int64) { counts[i] = c })
		if reference == nil {
			reference = append([]int64(nil), counts...)
			continue
		}
		for i := range counts {
			if counts[i] != reference[i] {
				t.Fatalf("cache %dB changed bin %d: %d != %d", cacheBytes, i, counts[i], reference[i])
			}
		}
	}
}

func TestBinnerDropsOutOfRange(t *testing.T) {
	pre, _ := RangeFor(0, 9, 1)
	b := NewBinner(DefaultBinnerConfig(), pre)
	b.PushAll([]int64{1, 2, 100, -5, 3})
	vec, stats := b.Finish()
	if stats.Items != 3 || stats.Dropped != 2 {
		t.Errorf("items=%d dropped=%d", stats.Items, stats.Dropped)
	}
	if vec.Total() != 3 {
		t.Errorf("total = %d", vec.Total())
	}
}

// antiCacheStream yields values that cycle through far more memory lines
// than the cache holds, so every access misses.
func antiCacheStream(n int) []int64 {
	const lines = 4096 // 16-line cache can never hit with a 4096-line cycle
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%lines) * int64(hw.DefaultBinsPerLine)
	}
	return vals
}

func TestTable1WorstCase20M(t *testing.T) {
	// "Cache never hit (Worst): 20 Million values/second".
	vals := antiCacheStream(200_000)
	b := binnerFor(t, 0, 4096*8, DefaultBinnerConfig())
	b.PushAll(vals)
	_, stats := b.Finish()
	if stats.CacheHits != 0 {
		t.Fatalf("expected zero hits, got %d", stats.CacheHits)
	}
	rate := stats.ValuesPerSecond(hw.NewClock(hw.DefaultClockHz))
	if math.Abs(rate-20e6)/20e6 > 0.02 {
		t.Errorf("worst-case rate = %.2f M/s, want 20 M/s", rate/1e6)
	}
}

func TestTable1BestCase50M(t *testing.T) {
	// "Cache always hit (Best): 50 Million values/second".
	vals := make([]int64, 200_000) // constant value: all hits after the first
	b := binnerFor(t, 0, 100, DefaultBinnerConfig())
	b.PushAll(vals)
	_, stats := b.Finish()
	if stats.CacheMisses != 1 {
		t.Fatalf("expected a single compulsory miss, got %d", stats.CacheMisses)
	}
	rate := stats.ValuesPerSecond(hw.NewClock(hw.DefaultClockHz))
	if math.Abs(rate-50e6)/50e6 > 0.02 {
		t.Errorf("best-case rate = %.2f M/s, want 50 M/s", rate/1e6)
	}
}

func TestTable1PipelineIdeal75M(t *testing.T) {
	// "Pipeline (Ideal): 75 Million values/second" — with memory taken out
	// of the equation the 2-cycle issue rate is the limit.
	cfg := DefaultBinnerConfig()
	cfg.Mem.RandomOpsPerSec = 1 << 40
	cfg.Mem.BurstOpsPerSec = 1 << 40
	cfg.Mem.LatencyCycles = 0
	vals := antiCacheStream(200_000)
	b := binnerFor(t, 0, 4096*8, cfg)
	b.PushAll(vals)
	_, stats := b.Finish()
	rate := stats.ValuesPerSecond(hw.NewClock(hw.DefaultClockHz))
	if math.Abs(rate-75e6)/75e6 > 0.02 {
		t.Errorf("ideal rate = %.2f M/s, want 75 M/s", rate/1e6)
	}
}

func TestBinnerSkewIndependentWithCache(t *testing.T) {
	// §5.1.3: "We want to guarantee same performance for the Binner
	// module, regardless of the amount of skew." With the cache on,
	// heavily skewed input must not be slower than spread-out input —
	// and there must be no RAW stalls.
	n := 100_000
	skewed := make([]int64, n) // all the same value
	uniform := datagen.Take(datagen.NewUniform(2, 0, 32768), n)

	run := func(vals []int64, cacheBytes int) BinnerStats {
		cfg := DefaultBinnerConfig()
		cfg.CacheBytes = cacheBytes
		b := binnerFor(t, 0, 32767, cfg)
		b.PushAll(vals)
		_, stats := b.Finish()
		return stats
	}

	withCacheSkew := run(skewed, hw.DefaultCacheBytes)
	withCacheUni := run(uniform, hw.DefaultCacheBytes)
	if withCacheSkew.StallCycles != 0 {
		t.Errorf("cache enabled but %d stall cycles on skewed input", withCacheSkew.StallCycles)
	}
	if withCacheSkew.Cycles > withCacheUni.Cycles {
		t.Errorf("skewed input slower than uniform with cache: %d > %d cycles",
			withCacheSkew.Cycles, withCacheUni.Cycles)
	}

	// Without the cache, the same skewed input must stall on RAW hazards.
	noCacheSkew := run(skewed, 0)
	if noCacheSkew.StallCycles == 0 {
		t.Error("cache disabled but skewed input shows no RAW stalls")
	}
	if noCacheSkew.Cycles <= withCacheSkew.Cycles {
		t.Errorf("stalled run not slower: %d <= %d cycles", noCacheSkew.Cycles, withCacheSkew.Cycles)
	}
}

func TestBinnerSkewImprovesThroughputViaCache(t *testing.T) {
	// §6.1: "In case the data is heavily skewed ... it is possible to
	// perform a higher number of updates per second."
	n := 100_000
	clk := hw.NewClock(hw.DefaultClockHz)

	runRate := func(vals []int64) float64 {
		b := binnerFor(t, 0, 1<<20, DefaultBinnerConfig())
		b.PushAll(vals)
		_, stats := b.Finish()
		return stats.ValuesPerSecond(clk)
	}
	skewRate := runRate(datagen.Take(datagen.NewZipf(3, 0, 1<<20, 1.2, false), n))
	uniRate := runRate(antiCacheStream(n))
	if skewRate <= uniRate {
		t.Errorf("skewed rate %.1f M/s not above uniform %.1f M/s", skewRate/1e6, uniRate/1e6)
	}
}

func TestBinnerMemOpAccounting(t *testing.T) {
	vals := antiCacheStream(10_000)
	b := binnerFor(t, 0, 4096*8, DefaultBinnerConfig())
	b.PushAll(vals)
	_, stats := b.Finish()
	// Every miss costs one read and one write.
	if stats.MemReadOps != 10_000 {
		t.Errorf("reads = %d", stats.MemReadOps)
	}
	if stats.MemWriteOps != 10_000 {
		t.Errorf("writes = %d", stats.MemWriteOps)
	}

	b2 := binnerFor(t, 0, 100, DefaultBinnerConfig())
	b2.PushAll(make([]int64, 10_000))
	_, stats2 := b2.Finish()
	// Hits skip the read ("we do not issue read commands for items that
	// are already in the cache", §6.1) but write-through always writes.
	if stats2.MemReadOps != 1 {
		t.Errorf("hit-path reads = %d, want 1", stats2.MemReadOps)
	}
	if stats2.MemWriteOps != 10_000 {
		t.Errorf("hit-path writes = %d", stats2.MemWriteOps)
	}
}

func TestBinnerZeroItems(t *testing.T) {
	b := binnerFor(t, 0, 10, DefaultBinnerConfig())
	vec, stats := b.Finish()
	if stats.Items != 0 || stats.Cycles != 0 || vec.Total() != 0 {
		t.Errorf("empty run: %+v, total=%d", stats, vec.Total())
	}
	if stats.ValuesPerSecond(hw.NewClock(hw.DefaultClockHz)) != 0 {
		t.Error("rate of empty run should be 0")
	}
}

func TestEquivalentTableRates(t *testing.T) {
	// Table 1's derived columns: 20 M values/s over 4-byte values is
	// 80 MB/s for a one-column table; lineitem's wider rows make the
	// equivalent whole-table rate 2.9 GB/s (144-byte rows in the paper's
	// arithmetic: 80 MB/s × 36 ≈ 2.9 GB/s).
	oneCol := 20e6 * 4
	if oneCol != 80e6 {
		t.Errorf("one-column equivalent = %v", oneCol)
	}
}

func TestBinnerMergeMatchesSerial(t *testing.T) {
	// Splitting a stream across lanes and merging must reproduce the serial
	// bin counts exactly, with summed work counters and the max-lane
	// completion cycle.
	vals := datagen.Take(datagen.NewZipf(7, 0, 4096, 0.9, true), 50_000)

	serial := binnerFor(t, 0, 4095, DefaultBinnerConfig())
	serial.PushAll(vals)
	serialVec, serialStats := serial.Finish()

	lanes := make([]*Binner, 4)
	for i := range lanes {
		lanes[i] = binnerFor(t, 0, 4095, DefaultBinnerConfig())
	}
	for i, v := range vals {
		lanes[i%len(lanes)].Push(v)
	}
	var maxLane int64
	for _, l := range lanes[1:] {
		_, ls := l.Finish()
		if ls.Cycles > maxLane {
			maxLane = ls.Cycles
		}
		if err := lanes[0].Merge(l); err != nil {
			t.Fatal(err)
		}
	}
	vec, stats := lanes[0].Finish()

	if vec.Total() != serialVec.Total() {
		t.Fatalf("merged total %d != serial %d", vec.Total(), serialVec.Total())
	}
	if !slices.Equal(vec.NonZero(), serialVec.NonZero()) {
		t.Fatal("merged bins differ from serial")
	}
	if stats.Items != serialStats.Items {
		t.Errorf("merged items %d != serial %d", stats.Items, serialStats.Items)
	}
	if stats.Cycles < maxLane {
		t.Errorf("merged cycles %d below slowest merged lane %d", stats.Cycles, maxLane)
	}
	// Parallel lanes each see ~1/4 of the stream, so the critical path must
	// be well below the serial completion time.
	if stats.Cycles >= serialStats.Cycles {
		t.Errorf("merged critical path %d not below serial %d", stats.Cycles, serialStats.Cycles)
	}
}

func TestBinnerMergePartiallyFilledLanes(t *testing.T) {
	// Lanes with wildly different fill levels — including an empty one —
	// must merge into exact combined counts and critical-path cycles.
	a := binnerFor(t, 0, 99, DefaultBinnerConfig())
	b := binnerFor(t, 0, 99, DefaultBinnerConfig())
	empty := binnerFor(t, 0, 99, DefaultBinnerConfig())
	a.PushAll([]int64{1, 2, 3, 3, 200}) // one out-of-range drop
	b.PushAll([]int64{3, 50})

	_, as := a.Finish()
	_, bs := b.Finish()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(empty); err != nil {
		t.Fatal(err)
	}
	vec, stats := a.Finish()
	if stats.Items != 6 || stats.Dropped != 1 {
		t.Errorf("items=%d dropped=%d, want 6/1", stats.Items, stats.Dropped)
	}
	if got := vec.CountValue(3); got != 3 {
		t.Errorf("count(3) = %d, want 3", got)
	}
	if vec.Total() != 6 {
		t.Errorf("total = %d, want 6", vec.Total())
	}
	want := as.Cycles
	if bs.Cycles > want {
		want = bs.Cycles
	}
	if stats.Cycles != want {
		t.Errorf("merged cycles %d, want max-lane %d", stats.Cycles, want)
	}
	if stats.MemWriteOps != as.MemWriteOps+bs.MemWriteOps {
		t.Errorf("write ops %d, want %d", stats.MemWriteOps, as.MemWriteOps+bs.MemWriteOps)
	}
}

func TestBinnerMergeRejectsMismatchedGeometry(t *testing.T) {
	a := binnerFor(t, 0, 99, DefaultBinnerConfig())
	b := binnerFor(t, 0, 199, DefaultBinnerConfig())
	if err := a.Merge(b); err == nil {
		t.Error("mismatched geometry should not merge")
	}
}

func TestBinnerStatsMerge(t *testing.T) {
	a := BinnerStats{Items: 10, Dropped: 1, MemReadOps: 5, MemWriteOps: 10, CacheHits: 5, CacheMisses: 5, StallCycles: 3, Cycles: 700}
	b := BinnerStats{Items: 4, MemReadOps: 4, MemWriteOps: 4, CacheMisses: 4, Cycles: 900}
	m := a.Merge(b)
	if m.Items != 14 || m.Dropped != 1 || m.MemReadOps != 9 || m.MemWriteOps != 14 {
		t.Errorf("work counters wrong: %+v", m)
	}
	if m.CacheHits != 5 || m.CacheMisses != 9 || m.StallCycles != 3 {
		t.Errorf("cache/stall counters wrong: %+v", m)
	}
	if m.Cycles != 900 {
		t.Errorf("cycles = %d, want max 900", m.Cycles)
	}
}
