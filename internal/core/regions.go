package core

import (
	"fmt"

	"streamhist/internal/bins"
	"streamhist/internal/hw"
)

// This file implements the §4 decoupling: "Memory acts as a decoupling
// element between the Binner and the Histogram module, as they interact in
// a producer-consumer-like manner. ... while for some data the histogram is
// calculated in the Histogram module, another input table can be already
// processed and binned at a different region in memory."
//
// PipelinedCircuit runs a sequence of column scans through one Binner and
// one Histogram module, overlapping table N's histogram creation with table
// N+1's binning whenever a free memory region exists.

// TableScan is one unit of work for the pipelined circuit: a column to
// process and its preconfigured value geometry.
type TableScan struct {
	// Name labels the scan in reports.
	Name string
	// Values is the extracted column (post-Parser).
	Values []int64
	// Min, Max, Divisor configure the preprocessor for this scan.
	Min, Max, Divisor int64
}

// PipelineOutcome reports one scan's results and its slot in the timeline.
type PipelineOutcome struct {
	Name   string
	Region int

	Bins        *bins.Vector
	BinnerStats BinnerStats
	Chain       ChainResult

	// Timeline, in cycles from the start of the whole run.
	BinStartCycle  int64
	BinEndCycle    int64
	HistStartCycle int64
	HistEndCycle   int64
}

// PipelineResult is the outcome of processing a batch of scans.
type PipelineResult struct {
	Outcomes []PipelineOutcome
	// TotalCycles is when the last histogram finished.
	TotalCycles int64
	// SequentialCycles is what the same work would cost with no
	// overlap (one region, strict bin-then-histogram per table).
	SequentialCycles int64
}

// Seconds converts total completion to seconds.
func (r PipelineResult) Seconds(clk hw.Clock) float64 { return clk.Seconds(r.TotalCycles) }

// Overlap returns the fraction of sequential time saved by the
// producer-consumer decoupling (0 = none, approaching the histogram
// phase's share of total work when fully overlapped).
func (r PipelineResult) Overlap() float64 {
	if r.SequentialCycles == 0 {
		return 0
	}
	return 1 - float64(r.TotalCycles)/float64(r.SequentialCycles)
}

// PipelinedCircuit schedules scans across memory regions.
type PipelinedCircuit struct {
	cfg     Config
	regions int
}

// NewPipelinedCircuit builds a pipelined circuit with the given number of
// bin-memory regions (the paper's design implies two; more regions only
// help if histogram creation is slower than binning).
func NewPipelinedCircuit(cfg Config, regions int) (*PipelinedCircuit, error) {
	if regions < 1 {
		return nil, fmt.Errorf("core: need at least one memory region, got %d", regions)
	}
	if cfg.Binner.Clock.Hz == 0 {
		cfg.Binner = DefaultBinnerConfig()
	}
	if cfg.TopK <= 0 && cfg.EquiDepthBuckets <= 0 && cfg.MaxDiffBuckets <= 0 &&
		(cfg.CompressedBuckets <= 0 || cfg.CompressedT <= 0) {
		// The timeline needs a Histogram phase to overlap: with no block
		// configured, run the evaluation's 256-bucket equi-depth.
		cfg.EquiDepthBuckets = 256
	}
	return &PipelinedCircuit{cfg: cfg, regions: regions}, nil
}

// Regions returns the number of bin-memory regions.
func (p *PipelinedCircuit) Regions() int { return p.regions }

// Process runs the scans in order. Functionally each scan is identical to a
// standalone Circuit run; the timeline models the overlap the decoupling
// buys: the Binner may start scan N+1 as soon as a region is free, while
// the Histogram module is still consuming scan N's region.
func (p *PipelinedCircuit) Process(scans []TableScan) (*PipelineResult, error) {
	res := &PipelineResult{}
	regionFree := make([]int64, p.regions) // cycle when each region frees up
	var binnerFree, histFree int64

	for _, scan := range scans {
		if scan.Divisor == 0 {
			scan.Divisor = 1
		}
		pre, err := RangeFor(scan.Min, scan.Max, scan.Divisor)
		if err != nil {
			return nil, fmt.Errorf("core: scan %q: %w", scan.Name, err)
		}

		// Run the functional work (timing comes from the module stats).
		binner := NewBinner(p.cfg.Binner, pre)
		binner.PushAll(scan.Values)
		vec, bstats := binner.Finish()
		chain := p.cfg.Results(binner, bstats, nil).Chain

		// Schedule: pick the region that frees earliest.
		region := 0
		for r := 1; r < p.regions; r++ {
			if regionFree[r] < regionFree[region] {
				region = r
			}
		}
		binStart := max64(binnerFree, regionFree[region])
		binEnd := binStart + bstats.Cycles
		histStart := max64(binEnd, histFree)
		histEnd := histStart + chain.TotalCycles

		binnerFree = binEnd
		histFree = histEnd
		regionFree[region] = histEnd

		res.Outcomes = append(res.Outcomes, PipelineOutcome{
			Name:           scan.Name,
			Region:         region,
			Bins:           vec,
			BinnerStats:    bstats,
			Chain:          chain,
			BinStartCycle:  binStart,
			BinEndCycle:    binEnd,
			HistStartCycle: histStart,
			HistEndCycle:   histEnd,
		})
		res.SequentialCycles += bstats.Cycles + chain.TotalCycles
		if histEnd > res.TotalCycles {
			res.TotalCycles = histEnd
		}
	}
	return res, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
