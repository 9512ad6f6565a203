package stream

import (
	"bytes"
	"io"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

// sketchTestSpec keeps HeavyK above l_quantity's distinct count (≤ 50), so
// all three blocks — not just the order-insensitive two — must come out
// byte-identical to the serial run under any sharding.
func sketchTestSpec() sketch.ChainSpec {
	return sketch.ChainSpec{NDVPrecision: 11, HeavyK: 64, WindowW: 256}
}

// TestParallelDataPathSketchEqualsSerial is the sketch-engine counterpart of
// TestParallelDataPathEqualsSerial: for every shard count and chunking, the
// merged chain must be byte-identical to the serial DataPath's — positions
// carried by the pages make even the order-sensitive window exact.
func TestParallelDataPathSketchEqualsSerial(t *testing.T) {
	rel := tpch.Lineitem(30_000, 1, 41)
	spec := sketchTestSpec()

	dp, err := NewDataPath(rel, "l_quantity", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	dp.Sketch = spec
	serial, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results.Sketches) != 3 {
		t.Fatalf("serial scan produced %d sketch blocks, want 3", len(serial.Results.Sketches))
	}
	want := mustEncodeSketches(t, serial.Results.Sketches)

	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, chunkPages := range []int{1, 5, 16} {
			pdp, err := NewParallelDataPath(rel, "l_quantity", PCIeGen1x8, shards)
			if err != nil {
				t.Fatal(err)
			}
			pdp.Sketch = spec
			res, err := pdp.Scan(io.Discard, chunkPages)
			if err != nil {
				t.Fatalf("shards=%d chunk=%d: %v", shards, chunkPages, err)
			}
			got := mustEncodeSketches(t, res.Results.Sketches)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("shards=%d chunk=%d: block %s differs from serial",
						shards, chunkPages, serial.Results.Sketches[i].Name())
				}
			}
			if res.Results.SketchCycles != serial.Results.SketchCycles {
				t.Errorf("shards=%d: sketch cycles %d != serial %d",
					shards, res.Results.SketchCycles, serial.Results.SketchCycles)
			}
		}
	}
}

// TestParallelDataPathSketchSurvivesLaneFaults: lanes panicking and being
// replayed must be invisible in the sketches — retired lanes' partial chains
// are discarded with their binners and the replay re-feeds the same
// positions, so the merged chain still matches the serial run bytewise.
func TestParallelDataPathSketchSurvivesLaneFaults(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 42)
	spec := sketchTestSpec()

	dp, err := NewDataPath(rel, "l_quantity", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	dp.Sketch = spec
	serial, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncodeSketches(t, serial.Results.Sketches)

	retiredSomewhere := false
	for seed := uint64(0); seed < 8; seed++ {
		pdp, err := NewParallelDataPath(rel, "l_quantity", PCIeGen1x8, 4)
		if err != nil {
			t.Fatal(err)
		}
		pdp.Sketch = spec
		pdp.faults = faults.New(seed, faults.Profile{faults.LanePanic: 0.3})
		res, err := pdp.Scan(io.Discard, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantSameBins(t, res.Results.Bins, serial.Results.Bins)
		retiredSomewhere = retiredSomewhere || res.LanesRetired > 0
		got := mustEncodeSketches(t, res.Results.Sketches)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("seed %d: block %s drifted from serial under lane faults (lanes retired: %d)",
					seed, serial.Results.Sketches[i].Name(), res.LanesRetired)
			}
		}
	}
	if !retiredSomewhere {
		t.Fatal("no seed retired a lane — the test exercised nothing")
	}
}

// TestParallelDataPathSketchFaultPointsFailOpen: the sketch-specific fault
// points may corrupt or retire blocks, but the blast radius must stop at the
// sketch — the scan completes, histograms stay exact, and damaged blocks are
// flagged Degraded rather than silently wrong.
func TestParallelDataPathSketchFaultPointsFailOpen(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 43)
	spec := sketchTestSpec()

	dp, err := NewDataPath(rel, "l_quantity", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}

	sawDegraded := false
	for seed := uint64(0); seed < 10; seed++ {
		pdp, err := NewParallelDataPath(rel, "l_quantity", PCIeGen1x8, 4)
		if err != nil {
			t.Fatal(err)
		}
		pdp.Sketch = spec
		pdp.faults = faults.New(seed, faults.Profile{
			faults.SketchCorrupt: 0.2,
			faults.SketchRetire:  0.1,
		})
		res, err := pdp.Scan(io.Discard, 1)
		if err != nil {
			t.Fatalf("seed %d: sketch faults must never fail the scan: %v", seed, err)
		}
		if !res.Results.EquiDepth.Equal(serial.Results.EquiDepth) {
			t.Fatalf("seed %d: sketch faults leaked into the histogram", seed)
		}
		for _, b := range res.Results.Sketches {
			if b.Degraded() {
				sawDegraded = true
			}
		}
	}
	if !sawDegraded {
		t.Fatal("no block ever degraded — the sketch fault points never fired")
	}
}

// TestDataPathSketchCycleAttribution: sketch cycles are a pipelined side
// cost, attributed exactly — the profile gains precisely SketchCycles under
// the merged frame, and the host-visible completion arithmetic (lane
// subtrees, critical path) is unchanged from a sketch-free scan.
func TestDataPathSketchCycleAttribution(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 44)

	run := func(spec sketch.ChainSpec) (*ScanResult, *hwprof.Profile) {
		dp, err := NewDataPath(rel, "l_quantity", TenGbE)
		if err != nil {
			t.Fatal(err)
		}
		dp.Sketch = spec
		dp.Prof = hwprof.New()
		res, err := dp.Scan(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res, dp.Prof.Snapshot()
	}

	bare, bareProf := run(sketch.ChainSpec{})
	if bare.Results.SketchCycles != 0 || len(bare.Results.Sketches) != 0 {
		t.Fatal("disabled spec still produced sketches")
	}

	res, prof := run(sketchTestSpec())
	if res.Results.SketchCycles <= 0 {
		t.Fatal("enabled chain accrued no cycles")
	}
	wantTotal := bareProf.TotalCycles() + res.Results.SketchCycles
	if got := prof.TotalCycles(); got != wantTotal {
		t.Fatalf("profile total %d != sketch-free total + SketchCycles %d", got, wantTotal)
	}
	if got, want := prof.SubtreeCycles("merged"),
		res.Results.Chain.TotalCycles+res.Results.SketchCycles; got != want {
		t.Fatalf("merged subtree %d != chain+sketch %d", got, want)
	}
	if res.Results.BinnerStats.Cycles != bare.Results.BinnerStats.Cycles {
		t.Fatalf("sketches changed the binning completion: %d != %d",
			res.Results.BinnerStats.Cycles, bare.Results.BinnerStats.Cycles)
	}
}

// TestParallelDataPathSketchProfileConsistency extends the exact-attribution
// invariant to the sharded path with sketches on: lanes charge their binning,
// the merged frame charges aggregation + chain + sketch, nothing is lost.
func TestParallelDataPathSketchProfileConsistency(t *testing.T) {
	rel := tpch.Lineitem(30_000, 1, 45)
	pdp, err := NewParallelDataPath(rel, "l_quantity", TenGbE, 4)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Sketch = sketchTestSpec()
	pdp.Prof = hwprof.New()
	res, err := pdp.Scan(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof := pdp.Prof.Snapshot()

	var laneSum int64
	for _, ls := range res.PerShard {
		laneSum += ls.Cycles
	}
	want := laneSum + res.AggregationCycles + res.Results.Chain.TotalCycles + res.Results.SketchCycles
	if got := prof.TotalCycles(); got != want {
		t.Fatalf("profile total %d != lanes+aggregation+chain+sketch %d", got, want)
	}
}

func mustEncodeSketches(t *testing.T, bs sketch.Blocks) [][]byte {
	t.Helper()
	raws, err := sketch.EncodeBlocks(bs)
	if err != nil {
		t.Fatal(err)
	}
	return raws
}
