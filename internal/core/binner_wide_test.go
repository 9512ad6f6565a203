package core

import (
	"testing"

	"streamhist/internal/datagen"
)

// wideUniverseBins is just past 2^20 memory lines at 8 bins per line — the
// geometry that used to switch the RAW-hazard table and the cache residence
// table to their map forms.
const wideUniverseBins = 9_000_000

// wideUniverseValues is a seeded hotspot stream over the wide universe: half
// the draws land on 180 hot values (so an uncached pipeline stalls on RAW
// hazards and a cached one forwards), the rest scatter over all 1.1 M lines
// (so the old pending map crossed its retirement threshold many times).
func wideUniverseValues() []int64 {
	return datagen.Take(datagen.NewHotspot(4242, 0, wideUniverseBins, 0.5, 2e-5), 200_000)
}

// TestBinnerWideUniverseStatsPinned holds the full accounting of a binner
// over more than 2^20 lines to constants captured on the commit that still
// had the map-form hazard table and cache (6527195). The flat tables that
// replaced them must reproduce every figure — cycles, stalls, hits, misses,
// memory ops — not just the bin counts.
func TestBinnerWideUniverseStatsPinned(t *testing.T) {
	vals := wideUniverseValues()
	for _, tc := range []struct {
		name       string
		cacheBytes int
		want       BinnerStats
	}{
		{"cache", DefaultBinnerConfig().CacheBytes, BinnerStats{
			Items: 200000, MemReadOps: 170843, MemWriteOps: 200000,
			CacheHits: 29157, CacheMisses: 170843, StallCycles: 22365, Cycles: 1391564,
		}},
		{"nocache", 0, BinnerStats{
			Items: 200000, MemReadOps: 200000, MemWriteOps: 200000,
			CacheMisses: 200000, StallCycles: 1316365, Cycles: 2821540,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultBinnerConfig()
			cfg.CacheBytes = tc.cacheBytes
			b := binnerFor(t, 0, wideUniverseBins-1, cfg)
			// Mixed chunk sizes, like pages arriving on a lane.
			for off := 0; off < len(vals); {
				n := min(127+off%5, len(vals)-off)
				b.PushAll(vals[off : off+n])
				off += n
			}
			vec, got := b.Finish()
			if got != tc.want {
				t.Fatalf("stats = %#v\nwant    %#v", got, tc.want)
			}
			if vec.Total() != int64(len(vals)) {
				t.Fatalf("total = %d, want %d", vec.Total(), len(vals))
			}
			b.Release()
		})
	}
}
