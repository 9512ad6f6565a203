package stream

import (
	"fmt"
	"io"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/tpch"
)

// TestDataPathProfileConsistency: on the serial path the profile must be an
// exact decomposition of the scan arithmetic — lane0's subtree equals the
// binning completion cycles, the merged subtree equals the chain, and the
// grand total equals BinnerStats.Cycles + Chain.TotalCycles.
func TestDataPathProfileConsistency(t *testing.T) {
	rel := tpch.Lineitem(30_000, 1, 31)
	dp, err := NewDataPath(rel, "l_quantity", TenGbE)
	if err != nil {
		t.Fatal(err)
	}
	dp.Prof = hwprof.New()
	res, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof := dp.Prof.Snapshot()
	bstats := res.Results.BinnerStats
	chain := res.Results.Chain

	if got := prof.SubtreeCycles("lane0"); got != bstats.Cycles {
		t.Fatalf("lane0 subtree %d != BinnerStats.Cycles %d", got, bstats.Cycles)
	}
	if got := prof.SubtreeCycles("merged"); got != chain.TotalCycles {
		t.Fatalf("merged subtree %d != Chain.TotalCycles %d", got, chain.TotalCycles)
	}
	if got, want := prof.TotalCycles(), bstats.Cycles+chain.TotalCycles; got != want {
		t.Fatalf("profile total %d != binning+chain %d", got, want)
	}
}

// TestParallelDataPathProfileConsistency: each lane's subtree must equal
// that shard's own cycle accounting, the merged subtree the aggregation
// fan-in plus the chain, and max-lane + aggregation must reproduce the PR 2
// CriticalPath arithmetic behind Results.BinnerStats.Cycles.
func TestParallelDataPathProfileConsistency(t *testing.T) {
	rel := tpch.Lineitem(40_000, 1, 32)
	pdp, err := NewParallelDataPath(rel, "l_quantity", TenGbE, 4)
	if err != nil {
		t.Fatal(err)
	}
	pdp.Obs = &obs.Obs{Prof: hwprof.New()}
	res, err := pdp.Scan(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof := pdp.Profile()
	chain := res.Results.Chain

	var laneSum, maxLane int64
	for i, ls := range res.PerShard {
		sub := prof.SubtreeCycles(fmt.Sprintf("lane%d", i))
		if sub != ls.Cycles {
			t.Fatalf("lane%d subtree %d != PerShard cycles %d", i, sub, ls.Cycles)
		}
		laneSum += ls.Cycles
		if ls.Cycles > maxLane {
			maxLane = ls.Cycles
		}
	}
	if got, want := prof.SubtreeCycles("merged"), res.AggregationCycles+chain.TotalCycles; got != want {
		t.Fatalf("merged subtree %d != aggregation+chain %d", got, want)
	}
	if got, want := prof.TotalCycles(), laneSum+res.AggregationCycles+chain.TotalCycles; got != want {
		t.Fatalf("profile total %d != lanes+aggregation+chain %d", got, want)
	}
	if got, want := maxLane+res.AggregationCycles, res.CriticalPathCycles; got != want {
		t.Fatalf("max lane + aggregation = %d, CriticalPathCycles = %d", got, want)
	}
	if res.Results.BinnerStats.Cycles != res.CriticalPathCycles {
		t.Fatalf("BinnerStats.Cycles %d != CriticalPathCycles %d",
			res.Results.BinnerStats.Cycles, res.CriticalPathCycles)
	}
}

// TestParallelProfileConsistencyUnderFaults: with lane panics retiring
// shards mid-scan and memory faults stretching commits, the attribution
// must stay airtight — retired lanes charge nothing (their work was
// discarded), replayed work lands under the lanes that actually did it
// (including "inline"), spike cycles are attributed rather than lost, and
// the exact-total invariant still holds.
func TestParallelProfileConsistencyUnderFaults(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 33)
	for seed := uint64(0); seed < 6; seed++ {
		pdp, err := NewParallelDataPath(rel, "l_quantity", TenGbE, 4)
		if err != nil {
			t.Fatal(err)
		}
		pdp.Faults = faults.New(seed, faults.Profile{faults.LanePanic: 0.3})
		pdp.Config.Binner.Faults = faults.New(seed+100, faults.Profile{
			faults.MemLatencySpike: 0.02,
			faults.MemReadFlip:     0.01,
		})
		pdp.Obs = &obs.Obs{Prof: hwprof.New()}
		res, err := pdp.Scan(io.Discard, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof := pdp.Profile()

		var laneSum int64
		for i, ls := range res.PerShard {
			sub := prof.SubtreeCycles(fmt.Sprintf("lane%d", i))
			if sub != ls.Cycles {
				t.Fatalf("seed %d: lane%d subtree %d != PerShard cycles %d (retired lanes must charge nothing)",
					seed, i, sub, ls.Cycles)
			}
			laneSum += ls.Cycles
		}
		inline := prof.SubtreeCycles("inline")
		want := laneSum + inline + res.AggregationCycles + res.Results.Chain.TotalCycles
		if got := prof.TotalCycles(); got != want {
			t.Fatalf("seed %d: profile total %d != lanes+inline+aggregation+chain %d", seed, got, want)
		}
		if res.LanesRetired > 0 && inline == 0 && res.ReplayedChunks == 0 {
			t.Fatalf("seed %d: lanes retired but no replay recorded anywhere", seed)
		}
	}
}
