package stream

import (
	"bytes"
	"io"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/tpch"
)

// poolScan runs one sharded scan with sketches on and returns everything a
// caller can observe from it. Each scan's lanes release their binner scratch
// and sketch blocks into the global pools on the way out, so consecutive
// calls exercise fresh-build first, pooled-reuse after.
func poolScan(t *testing.T, inj *faults.Injector) (*ParallelScanResult, [][]byte) {
	t.Helper()
	rel := tpch.Lineitem(20_000, 1, 61)
	pdp, err := NewParallelDataPath(rel, "l_quantity", PCIeGen1x8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Sketch = sketchTestSpec()
	pdp.faults = inj
	res, err := pdp.Scan(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	return res, mustEncodeSketches(t, res.Results.Sketches)
}

// TestParallelScanPooledLanesBitIdentical: repeated identical scans — the
// first building every lane from fresh allocations, the rest from whatever
// the pools hold — must agree on every observable: histograms, completion
// cycles, and byte-level sketch encodings. Pooling is the tentpole's
// allocation optimisation; this is the proof it is *only* that.
func TestParallelScanPooledLanesBitIdentical(t *testing.T) {
	first, firstRaws := poolScan(t, nil)
	for round := 0; round < 4; round++ {
		res, raws := poolScan(t, nil)
		if !res.Results.EquiDepth.Equal(first.Results.EquiDepth) {
			t.Fatalf("round %d: equi-depth histogram drifted under pooled lanes", round)
		}
		if res.Results.BinnerStats != first.Results.BinnerStats {
			t.Fatalf("round %d: binner stats drifted under pooled lanes: %+v != %+v",
				round, res.Results.BinnerStats, first.Results.BinnerStats)
		}
		for i := range firstRaws {
			if !bytes.Equal(raws[i], firstRaws[i]) {
				t.Fatalf("round %d: sketch block %s drifted under pooled lanes",
					round, first.Results.Sketches[i].Name())
			}
		}
	}
}

// TestParallelScanPooledLanesAfterFaultedScan: a chaos scan retires lanes
// mid-chunk and their half-fed binners and chains go back to the pools from
// the retirement path, not the clean path. A clean scan built over that
// debris must still be byte-identical to the pristine first scan.
func TestParallelScanPooledLanesAfterFaultedScan(t *testing.T) {
	want, wantRaws := poolScan(t, nil)

	retired := 0
	for seed := uint64(0); seed < 6; seed++ {
		res, _ := poolScan(t, faults.New(seed, faults.Profile{faults.LanePanic: 0.4}))
		retired += res.LanesRetired
	}
	if retired == 0 {
		t.Fatal("no chaos seed retired a lane — the test exercised nothing")
	}

	res, raws := poolScan(t, nil)
	if !res.Results.EquiDepth.Equal(want.Results.EquiDepth) {
		t.Fatal("equi-depth histogram drifted after fault-retired lanes repooled their state")
	}
	if res.Results.BinnerStats != want.Results.BinnerStats {
		t.Fatalf("binner stats drifted after faulted scans: %+v != %+v",
			res.Results.BinnerStats, want.Results.BinnerStats)
	}
	for i := range wantRaws {
		if !bytes.Equal(raws[i], wantRaws[i]) {
			t.Fatalf("sketch block %s drifted after fault-retired lanes repooled their state",
				want.Results.Sketches[i].Name())
		}
	}
}
