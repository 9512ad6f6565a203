package stream

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/faults"
	"streamhist/internal/page"
	"streamhist/internal/tpch"
)

// Lane panics are fully masked: the supervisor retires the lane, replays its
// whole share, and the merged result stays exactly equal to the serial scan.
func TestParallelDataPathLanePanicsMasked(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 21)
	dp, err := NewDataPath(rel, "l_extendedprice", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(0); seed < 8; seed++ {
		pdp, err := NewParallelDataPath(rel, "l_extendedprice", PCIeGen1x8, 4)
		if err != nil {
			t.Fatal(err)
		}
		pdp.Faults = faults.New(seed, faults.Profile{faults.LanePanic: 0.3})
		res, err := pdp.Scan(io.Discard, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantSameBins(t, res.Results.Bins, serial.Results.Bins)
		if got, want := res.Results.Bins.Total(), serial.Results.Bins.Total(); got != want {
			t.Fatalf("seed %d: total %d != serial %d (replay must mask retirements)", seed, got, want)
		}
		if !res.Results.EquiDepth.Equal(serial.Results.EquiDepth) {
			t.Fatalf("seed %d: equi-depth histogram drifted under lane panics", seed)
		}
		if res.LanesRetired > 0 && res.ReplayedChunks == 0 {
			t.Fatalf("seed %d: %d lanes retired but nothing replayed", seed, res.LanesRetired)
		}
	}
}

// Stalled lanes are retired at the stall timeout and their share replayed;
// the scan terminates with the exact result and no goroutine leaks.
func TestParallelDataPathLaneStallsMasked(t *testing.T) {
	rel := tpch.Lineitem(8_000, 1, 22)
	dp, err := NewDataPath(rel, "l_extendedprice", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}

	pdp, err := NewParallelDataPath(rel, "l_extendedprice", PCIeGen1x8, 3)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Faults = faults.New(11, faults.Profile{faults.LaneStall: 0.5})
	pdp.stallTimeout = 50 * time.Millisecond

	start := time.Now()
	res, err := pdp.Scan(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSameBins(t, res.Results.Bins, serial.Results.Bins)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("scan took %v — stall supervision is not bounding waits", elapsed)
	}
	if got, want := res.Results.Bins.Total(), serial.Results.Bins.Total(); got != want {
		t.Fatalf("total %d != serial %d under stalls", got, want)
	}
	if res.LanesRetired == 0 {
		t.Fatal("50% stall rate retired no lanes")
	}
}

// Even with every lane failing, the inline fallback finishes the side path
// and the host stream is byte-identical to storage order.
func TestParallelDataPathAllLanesLostStillExact(t *testing.T) {
	rel := tpch.Lineitem(5_000, 1, 23)
	serial, err := mustDataPath(t, rel, "l_extendedprice").Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	pdp, err := NewParallelDataPath(rel, "l_extendedprice", PCIeGen1x8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Faults = faults.New(4, faults.Profile{faults.LanePanic: 1.0})

	var got bytes.Buffer
	res, err := pdp.Scan(&got, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSameBins(t, res.Results.Bins, serial.Results.Bins)
	if res.LanesRetired != 2 {
		t.Fatalf("rate-1.0 panics retired %d of 2 lanes", res.LanesRetired)
	}

	var want bytes.Buffer
	for _, pg := range page.Encode(rel) {
		want.Write(pg.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("host stream diverged from storage order under total lane loss")
	}
	if res.Results.Bins.Total() != int64(rel.NumRows()) {
		t.Fatalf("side path total %d != %d rows", res.Results.Bins.Total(), rel.NumRows())
	}
}

// Regression: the fan-in used one one-shot drain timer, so with two or more
// lanes stalled at drain time the first retirement consumed the only timer
// fire and the next <-l.done wait blocked forever. Every lane here stalls on
// its first (and only) chunk, so all of them are caught at drain time; the
// scan must retire them all and finish exactly via the inline replay.
func TestParallelDataPathDrainTimeMultiStallNoDeadlock(t *testing.T) {
	rel := tpch.Lineitem(5_000, 1, 26)
	dp, err := NewDataPath(rel, "l_extendedprice", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}

	const shards = 4
	pdp, err := NewParallelDataPath(rel, "l_extendedprice", PCIeGen1x8, shards)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Faults = faults.New(3, faults.Profile{faults.LaneStall: 1.0})
	pdp.stallTimeout = 50 * time.Millisecond
	// One chunk per lane: nothing stalls during fan-out, so every lane is
	// still "healthy" when the drain wait begins — the deadlock shape.
	chunkPages := (len(page.Encode(rel)) + shards - 1) / shards

	type out struct {
		res *ParallelScanResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := pdp.Scan(io.Discard, chunkPages)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.LanesRetired != shards {
			t.Fatalf("retired %d of %d drain-time stalled lanes", o.res.LanesRetired, shards)
		}
		if got, want := o.res.Results.Bins.Total(), serial.Results.Bins.Total(); got != want {
			t.Fatalf("total %d != serial %d after drain-time retirements", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Scan deadlocked draining multiple stalled lanes")
	}
}

// Regression: lanes retired during fan-out never had their channel closed,
// so once the scan's release broke their stall they blocked in the chunk
// range forever — one leaked goroutine (plus its buffered chunks) per
// retirement. Scan now joins every lane before returning, so repeated scans
// must leave the goroutine count where it started.
func TestParallelDataPathStallRetiredLanesExitAfterScan(t *testing.T) {
	rel := tpch.Lineitem(6_000, 1, 25)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		pdp, err := NewParallelDataPath(rel, "l_extendedprice", PCIeGen1x8, 2)
		if err != nil {
			t.Fatal(err)
		}
		pdp.Faults = faults.New(9, faults.Profile{faults.LaneStall: 1.0})
		pdp.stallTimeout = 30 * time.Millisecond
		res, err := pdp.Scan(io.Discard, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Results.Bins.Total() != int64(rel.NumRows()) {
			t.Fatalf("scan %d: total %d != %d rows", i, res.Results.Bins.Total(), rel.NumRows())
		}
	}
	// Lane goroutines close done just before returning, so give the last
	// ones a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines before scans, %d after — retired lanes are leaking", before, g)
	}
}

// The host stream must stay byte-identical under lane faults: retirements
// are a side-path affair only.
func TestParallelDataPathHostStreamUnchangedUnderFaults(t *testing.T) {
	rel := tpch.Lineitem(6_000, 1, 24)
	pdp, err := NewParallelDataPath(rel, "l_extendedprice", PCIeGen1x8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Faults = faults.New(2, faults.Profile{faults.LanePanic: 0.2, faults.LaneStall: 0.1})
	pdp.stallTimeout = 50 * time.Millisecond

	var got bytes.Buffer
	if _, err := pdp.Scan(&got, 2); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, pg := range page.Encode(rel) {
		want.Write(pg.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("host stream diverged under injected lane faults")
	}
}

// wantSameBins fails the test unless got holds, bin for bin, what the serial
// scan's Binner made: a lane fault the replay did not mask shows here even
// when totals and bucket boundaries agree. The two Occupied walks are
// compared pair by pair, which covers every bin without a lookup per bin of
// a 10 M-bin sparse region.
func wantSameBins(t *testing.T, got, want *bins.Vector) {
	t.Helper()
	if got.NumBins() != want.NumBins() || got.Total() != want.Total() {
		t.Fatalf("parallel view (%d bins, total %d) != serial (%d bins, total %d)",
			got.NumBins(), got.Total(), want.NumBins(), want.Total())
	}
	type bin struct {
		i int
		c int64
	}
	walk := func(v *bins.Vector) []bin {
		var out []bin
		v.Occupied(func(i int, c int64) { out = append(out, bin{i, c}) })
		return out
	}
	g, w := walk(got), walk(want)
	for k := 0; k < len(g) || k < len(w); k++ {
		switch {
		case k == len(g):
			t.Fatalf("bin %d is empty, serial says %d", w[k].i, w[k].c)
		case k == len(w):
			t.Fatalf("bin %d is %d, serial says it is empty", g[k].i, g[k].c)
		case g[k] != w[k]:
			t.Fatalf("non-empty bin %d of the parallel view is bin %d = %d, serial has bin %d = %d",
				k, g[k].i, g[k].c, w[k].i, w[k].c)
		}
	}
}
