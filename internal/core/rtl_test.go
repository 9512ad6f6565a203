package core

import (
	"math"
	"testing"
	"testing/quick"

	"streamhist/internal/datagen"
	"streamhist/internal/hw"
)

func rtlRun(t *testing.T, vals []int64, max int64, cfg BinnerConfig) ( /*vec*/ map[int64]int64, BinnerStats) {
	t.Helper()
	pre, err := RangeFor(0, max, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRTLBinner(cfg, pre)
	vec, stats := r.Run(vals)
	out := make(map[int64]int64)
	for _, b := range vec.NonZero() {
		out[b.Value] = b.Count
	}
	return out, stats
}

func TestRTLBinnerFunctionalCorrectness(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		pre, _ := RangeFor(0, 1<<16-1, 1)
		r := NewRTLBinner(DefaultBinnerConfig(), pre)
		vec, stats := r.Run(vals)
		if stats.Items != int64(len(vals)) || vec.Total() != int64(len(vals)) {
			return false
		}
		for v, c := range datagen.Counts(vals) {
			if vec.CountValue(v) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRTLMatchesFastModelFunctionally(t *testing.T) {
	vals := datagen.Take(datagen.NewZipf(1, 0, 4096, 0.9, true), 30_000)
	pre1, _ := RangeFor(0, 4095, 1)
	fast := NewBinner(DefaultBinnerConfig(), pre1)
	fast.PushAll(vals)
	fv, fstats := fast.Finish()

	pre2, _ := RangeFor(0, 4095, 1)
	rtl := NewRTLBinner(DefaultBinnerConfig(), pre2)
	rv, rstats := rtl.Run(vals)

	if fv.Total() != rv.Total() {
		t.Fatalf("totals differ: %d vs %d", fv.Total(), rv.Total())
	}
	for i := 0; i < fv.NumBins(); i++ {
		if fv.Count(i) != rv.Count(i) {
			t.Fatalf("bin %d differs: %d vs %d", i, fv.Count(i), rv.Count(i))
		}
	}
	// Op accounting identical: same misses → same reads; writes per item.
	if fstats.MemWriteOps != rstats.MemWriteOps {
		t.Errorf("write ops differ: %d vs %d", fstats.MemWriteOps, rstats.MemWriteOps)
	}
	if fstats.CacheHits != rstats.CacheHits || fstats.CacheMisses != rstats.CacheMisses {
		t.Errorf("cache accounting differs: fast %d/%d vs rtl %d/%d",
			fstats.CacheHits, fstats.CacheMisses, rstats.CacheHits, rstats.CacheMisses)
	}
}

// tickRates validates the fast model's Table 1 rates against the tick-level
// ground truth.
func TestRTLValidatesTable1Rates(t *testing.T) {
	clk := hw.NewClock(hw.DefaultClockHz)

	// Worst case: never hits.
	anti := make([]int64, 60_000)
	for i := range anti {
		anti[i] = int64(i%4096) * int64(hw.DefaultBinsPerLine)
	}
	_, worst := rtlRun(t, anti, 4096*8, DefaultBinnerConfig())
	worstRate := worst.ValuesPerSecond(clk)
	if math.Abs(worstRate-20e6)/20e6 > 0.05 {
		t.Errorf("RTL worst-case rate = %.2f M/s, want ~20", worstRate/1e6)
	}

	// Best case: constant value.
	_, best := rtlRun(t, make([]int64, 60_000), 100, DefaultBinnerConfig())
	bestRate := best.ValuesPerSecond(clk)
	if math.Abs(bestRate-50e6)/50e6 > 0.05 {
		t.Errorf("RTL best-case rate = %.2f M/s, want ~50", bestRate/1e6)
	}

	// Ideal: memory out of the picture.
	cfg := DefaultBinnerConfig()
	cfg.Mem.RandomOpsPerSec = 150_000_000 * 4 // effectively unconstrained
	cfg.Mem.BurstOpsPerSec = 150_000_000 * 4
	cfg.Mem.LatencyCycles = 0
	_, ideal := rtlRun(t, anti, 4096*8, cfg)
	idealRate := ideal.ValuesPerSecond(clk)
	if math.Abs(idealRate-75e6)/75e6 > 0.05 {
		t.Errorf("RTL ideal rate = %.2f M/s, want ~75", idealRate/1e6)
	}
}

func TestRTLSkewStallsWithoutCache(t *testing.T) {
	cfg := DefaultBinnerConfig()
	cfg.CacheBytes = 0
	_, stats := rtlRun(t, make([]int64, 5_000), 100, cfg)
	if stats.StallCycles == 0 {
		t.Error("no RAW stalls on constant stream without cache")
	}
	// With the cache the same stream is stall-free.
	_, cached := rtlRun(t, make([]int64, 5_000), 100, DefaultBinnerConfig())
	if cached.StallCycles != 0 {
		t.Errorf("cache enabled but %d stall cycles", cached.StallCycles)
	}
	if cached.Cycles >= stats.Cycles {
		t.Errorf("cached run (%d cycles) not faster than stalled (%d)", cached.Cycles, stats.Cycles)
	}
}

func TestRTLAgreesWithFastModelOnTiming(t *testing.T) {
	// The two models' completion cycles agree within 10% across mixes of
	// hit rates.
	for _, tc := range []struct {
		name string
		vals []int64
	}{
		{"zipf", datagen.Take(datagen.NewZipf(7, 0, 1<<14, 1.0, false), 40_000)},
		{"uniform", datagen.Take(datagen.NewUniform(8, 0, 1<<14), 40_000)},
		{"sequential", datagen.Take(datagen.NewSequential(0, 1<<14), 40_000)},
	} {
		pre1, _ := RangeFor(0, 1<<14-1, 1)
		fast := NewBinner(DefaultBinnerConfig(), pre1)
		fast.PushAll(tc.vals)
		_, fstats := fast.Finish()

		pre2, _ := RangeFor(0, 1<<14-1, 1)
		rtl := NewRTLBinner(DefaultBinnerConfig(), pre2)
		_, rstats := rtl.Run(tc.vals)

		// The RTL's port cannot bank idle cycles indefinitely (credit cap),
		// which the fast model's unbounded budget slightly underestimates
		// on bursty patterns — hence the 15% band rather than exactness.
		ratio := float64(fstats.Cycles) / float64(rstats.Cycles)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: fast model %d cycles vs RTL %d cycles (ratio %.3f)",
				tc.name, fstats.Cycles, rstats.Cycles, ratio)
		}
	}
}

func TestRTLDropsOutOfRange(t *testing.T) {
	pre, _ := RangeFor(0, 9, 1)
	r := NewRTLBinner(DefaultBinnerConfig(), pre)
	vec, stats := r.Run([]int64{1, 100, 2, -3})
	if stats.Items != 2 || stats.Dropped != 2 || vec.Total() != 2 {
		t.Errorf("items=%d dropped=%d total=%d", stats.Items, stats.Dropped, vec.Total())
	}
}

func TestRTLEmptyRun(t *testing.T) {
	pre, _ := RangeFor(0, 9, 1)
	r := NewRTLBinner(DefaultBinnerConfig(), pre)
	vec, stats := r.Run(nil)
	if stats.Cycles != 0 || vec.Total() != 0 {
		t.Errorf("empty run produced cycles=%d total=%d", stats.Cycles, vec.Total())
	}
}

func BenchmarkRTLBinnerVsFast(b *testing.B) {
	vals := datagen.Take(datagen.NewZipf(303, 0, 1<<14, 0.9, true), 50_000)
	b.Run("fast-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pre, _ := RangeFor(0, 1<<14-1, 1)
			binner := NewBinner(DefaultBinnerConfig(), pre)
			binner.PushAll(vals)
			binner.Finish()
		}
	})
	b.Run("rtl-tick-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pre, _ := RangeFor(0, 1<<14-1, 1)
			NewRTLBinner(DefaultBinnerConfig(), pre).Run(vals)
		}
	})
}
