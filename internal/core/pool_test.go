package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"streamhist/internal/datagen"
	"streamhist/internal/sketch"
)

func poolTestValues(n int) []int64 {
	return datagen.Take(datagen.NewZipf(77, 0, 1<<14, 1.1, true), n)
}

// poolTestRun builds a Binner (with a sketch chain riding it) over fresh or
// pooled scratch — whatever the pools hold — feeds it vals, and captures
// everything observable: bin counts, completion stats, and the canonical
// sketch encodings. The binner and chain are released afterwards, so each
// call hands its state to the next one.
func poolTestRun(t *testing.T, vals []int64) ([]int64, BinnerStats, [][]byte) {
	t.Helper()
	pre, err := RangeFor(0, 1<<14-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBinnerConfig()
	cfg.Sketches = sketch.NewChain(sketch.ChainSpec{NDVPrecision: 10, HeavyK: 16, WindowW: 64})
	b := NewBinner(cfg, pre)
	b.PushAll(vals)
	vec, stats := b.Finish()
	counts := make([]int64, vec.NumBins())
	vec.Occupied(func(i int, c int64) { counts[i] = c })
	raws, err := sketch.EncodeBlocks(b.SketchChain().Blocks())
	if err != nil {
		t.Fatal(err)
	}
	b.SketchChain().Release()
	b.Release()
	return counts, stats, raws
}

// TestBinnerReleaseReuseBitIdentical: a Binner assembled from pooled scratch
// (bin counts, pending table, cache, sketch blocks) must be observationally
// identical to one built from fresh allocations — same histogram, same cycle
// accounting, byte-identical sketch encodings. The pools are a pure
// allocation optimisation, never a semantic one.
func TestBinnerReleaseReuseBitIdentical(t *testing.T) {
	vals := poolTestValues(30_000)
	wantCounts, wantStats, wantRaws := poolTestRun(t, vals)
	for round := 0; round < 4; round++ {
		counts, stats, raws := poolTestRun(t, vals)
		if stats != wantStats {
			t.Fatalf("round %d: stats drifted under pooled reuse: %+v != %+v", round, stats, wantStats)
		}
		for i := range wantCounts {
			if counts[i] != wantCounts[i] {
				t.Fatalf("round %d: bin %d count %d != %d", round, i, counts[i], wantCounts[i])
			}
		}
		for i := range wantRaws {
			if !bytes.Equal(raws[i], wantRaws[i]) {
				t.Fatalf("round %d: sketch block %d encoding drifted under pooled reuse", round, i)
			}
		}
	}
}

// TestBinnerReuseAfterAbandonedLane: a lane retired mid-chunk (injected
// panic, stall timeout) releases a binner that was never finished — its
// pending table half full, its cache warm, its sketch blocks partially fed.
// The next binner built from that dirty scratch must still match a fresh one
// exactly: reset on reuse, not reset on release, is the invariant.
func TestBinnerReuseAfterAbandonedLane(t *testing.T) {
	vals := poolTestValues(30_000)
	want, wantStats, wantRaws := poolTestRun(t, vals)

	// The "fault-retired" lane: feed half the stream, never Finish, release.
	pre, err := RangeFor(0, 1<<14-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBinnerConfig()
	cfg.Sketches = sketch.NewChain(sketch.ChainSpec{NDVPrecision: 10, HeavyK: 16, WindowW: 64})
	dead := NewBinner(cfg, pre)
	dead.PushAll(vals[:len(vals)/2])
	dead.SketchChain().Release()
	dead.Release()

	counts, stats, raws := poolTestRun(t, vals)
	if stats != wantStats {
		t.Fatalf("stats drifted after abandoned-lane reuse: %+v != %+v", stats, wantStats)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bin %d count %d != %d after abandoned-lane reuse", i, counts[i], want[i])
		}
	}
	for i := range wantRaws {
		if !bytes.Equal(raws[i], wantRaws[i]) {
			t.Fatalf("sketch block %d encoding drifted after abandoned-lane reuse", i)
		}
	}
}

// wideRegionBins is the size of an l_extendedprice lane region.
const wideRegionBins = 10_000_000

// TestFreeListExactAcrossGoroutines: two lanes built on two goroutines and
// released from a third, round after round, run on the same two regions.
// The releasing goroutine keeps its P busy until the next round's lanes hold
// their regions, the way a server handler goes on running after it parks a
// survivor, so the lanes draw on another P: every parked region must be
// visible to them all the same.
func TestFreeListExactAcrossGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	pre, err := RangeFor(0, wideRegionBins-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := [2][]int64{
		datagen.Take(datagen.NewUniform(1, 0, wideRegionBins), 5_000),
		datagen.Take(datagen.NewUniform(2, 0, wideRegionBins), 5_000),
	}
	ledger := newRegionLedger()

	toRelease, released, stopped := make(chan []*Binner), make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	go func() {
		defer close(stopped)
		for lanes := range toRelease {
			for _, b := range lanes {
				b.Release()
			}
			hold.Store(true)
			released <- struct{}{}
			for hold.Load() {
			}
		}
	}()
	defer func() {
		hold.Store(false)
		close(toRelease)
		<-stopped
	}()

	for round := 0; round < 50; round++ {
		built := make(chan *Binner, len(vals))
		for lane := range vals {
			go func() {
				b := ledger.newBinner(DefaultBinnerConfig(), pre)
				b.PushAll(vals[lane])
				built <- b
			}()
		}
		lanes := []*Binner{<-built, <-built}
		hold.Store(false)
		toRelease <- lanes
		<-released
		if n := ledger.allocated(); n > 2 {
			t.Fatalf("round %d: %d regions allocated for two lanes", round, n)
		}
	}
	if n := ledger.allocated(); n != 2 {
		t.Fatalf("%d regions allocated for two lanes, want 2", n)
	}
}

// TestFreeListBestFit: a small lane takes the smallest parked region that
// fits, not the wide one, and a wide lane takes the wide one rather than
// growing the small one.
func TestFreeListBestFit(t *testing.T) {
	small, err := RangeFor(0, 49, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RangeFor(0, wideRegionBins-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBinnerConfig()
	emptyFreeList()
	bw, bs := NewBinner(cfg, wide), NewBinner(cfg, small)
	wideVec, smallVec := bw.vec, bs.vec
	bw.Release()
	bs.Release()

	b := NewBinner(cfg, small)
	if b.vec != smallVec {
		t.Fatalf("a 50-bin lane took a region of %d bins, not the parked 50-bin one", b.vec.Capacity())
	}
	b.Release()
	b = NewBinner(cfg, wide)
	if b.vec != wideVec {
		t.Fatalf("a %d-bin lane did not take the parked region that fits it", wideRegionBins)
	}
	b.Release()
}

// TestFreeListDropsAfterTwoGCs: like a sync.Pool, the free list lets go of
// scratch parked across two GC cycles, so an idle process frees its regions.
func TestFreeListDropsAfterTwoGCs(t *testing.T) {
	for i := 0; len(parkedVectors()) > 0; i++ {
		if i == 3 {
			t.Fatal("the free list did not empty over three GC cycles")
		}
		waitGC(t)
	}
	pre, err := RangeFor(0, 999, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinner(DefaultBinnerConfig(), pre)
	vec := b.vec
	b.Release()

	waitGC(t)
	if !slices.Contains(parkedVectors(), vec) {
		t.Fatal("scratch dropped after one GC cycle")
	}
	waitGC(t)
	if n := len(parkedVectors()); n != 0 {
		t.Fatalf("%d scratch still parked after two GC cycles", n)
	}
}
