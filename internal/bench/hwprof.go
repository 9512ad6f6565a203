package bench

import (
	"fmt"
	"io"
	"strings"

	"streamhist/internal/hwprof"
	"streamhist/internal/stream"
	"streamhist/internal/tpch"
)

// HWProf runs one profiled sharded scan and reports where the simulated
// accelerator cycles went, node by node — the hardware profiler's answer to
// "why does binning cost what BinnerStats.Cycles says it costs". The notes
// carry the self-check: the profile's lane subtrees must reproduce the lane
// accounting and the whole profile must sum to the attributed arithmetic,
// which is the same invariant the server exports as the
// streamhist_hwprof_consistency gauge.
func HWProf() *Report {
	r := &Report{
		ID:      "hwprof",
		Title:   "Cycle attribution: where the simulated accelerator cycles go",
		Columns: []string{"stack (lane;module;stage;reason)", "cycles", "share", "events"},
	}
	const lanes = 4
	rel := tpch.Lineitem(60_000, 10, 71)
	dp, err := stream.NewParallelDataPath(rel, "l_quantity", stream.TenGbE, lanes)
	if err != nil {
		panic(err)
	}
	dp.Prof = hwprof.New()
	res, err := dp.Scan(io.Discard, 0)
	if err != nil {
		panic(err)
	}
	prof := dp.Prof.Snapshot()

	total := prof.TotalCycles()
	for _, s := range prof.Samples {
		share := "-"
		if total > 0 && s.Cycles > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(s.Cycles)/float64(total))
		}
		r.AddRaw("cycles", float64(s.Cycles))
		r.AddRow(strings.Join(s.Stack, ";"),
			fmt.Sprint(s.Cycles), share, fmt.Sprint(s.Events))
	}

	// Self-check: per-lane subtrees vs the lanes' own accounting, and the
	// profile total vs the scan arithmetic (Σ lanes + aggregation + chain).
	var laneSum, maxLane int64
	laneOK := true
	for i, ls := range res.PerShard {
		sub := prof.SubtreeCycles(fmt.Sprintf("lane%d", i))
		if sub != ls.Cycles {
			laneOK = false
		}
		laneSum += ls.Cycles
		if ls.Cycles > maxLane {
			maxLane = ls.Cycles
		}
	}
	expected := laneSum + res.AggregationCycles + res.Results.Chain.TotalCycles
	r.AddRaw("consistency/lane-subtrees", b2f(laneOK))
	r.AddRaw("consistency/total", b2f(total == expected))
	r.Notes = append(r.Notes,
		fmt.Sprintf("lineitem l_quantity, %d lanes; profile total %d cycles vs arithmetic %d (lanes %d + aggregation %d + chain %d)",
			lanes, total, expected, laneSum, res.AggregationCycles, res.Results.Chain.TotalCycles),
		fmt.Sprintf("per-lane subtree == PerShard cycles for every lane: %v; AccelCycles = max-lane %d + aggregation + chain = %d",
			laneOK, maxLane, res.CriticalPathCycles+res.Results.Chain.TotalCycles),
		"the same invariant a running histserved exports live as the streamhist_hwprof_consistency gauge")
	return r
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
