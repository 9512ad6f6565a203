package core

import (
	"fmt"

	"streamhist/internal/bins"
	"streamhist/internal/hw"
)

// This file implements the §7 (Future Work) scale-up design: to sustain a
// single column arriving at 10 Gbps line rate, the Parser and Binner are
// replicated, input items are distributed round-robin across the copies,
// and each copy accumulates partial counts in its own memory. Because the
// partial counts live in separate memories, they can be aggregated "in
// constant time" (line-parallel) before being fed into the unchanged
// Histogram module.

// ParallelBinner fans one input stream out to n replicated Binner modules.
type ParallelBinner struct {
	binners []*Binner
	next    int // round-robin cursor
	geom    *Preprocessor
}

// NewParallelBinner builds n Binner replicas sharing one preprocessor
// geometry; each replica gets its own preprocessor instance (its own
// address logic) and its own memory region.
func NewParallelBinner(n int, cfg BinnerConfig, min, max, divisor int64) (*ParallelBinner, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one binner replica, got %d", n)
	}
	geom, err := RangeFor(min, max, divisor)
	if err != nil {
		return nil, err
	}
	p := &ParallelBinner{geom: geom}
	for i := 0; i < n; i++ {
		pre, err := RangeFor(min, max, divisor)
		if err != nil {
			return nil, err
		}
		p.binners = append(p.binners, NewBinner(cfg, pre))
	}
	return p, nil
}

// Replicas returns the number of Binner copies.
func (p *ParallelBinner) Replicas() int { return len(p.binners) }

// Push distributes one value round-robin, as the splitter's distribution
// logic would in hardware (Figure 23).
func (p *ParallelBinner) Push(value int64) {
	p.binners[p.next].Push(value)
	p.next++
	if p.next == len(p.binners) {
		p.next = 0
	}
}

// PushAll streams a whole column through the distributor.
func (p *ParallelBinner) PushAll(values []int64) {
	for _, v := range values {
		p.Push(v)
	}
}

// ParallelStats aggregates the replicas' accounting.
type ParallelStats struct {
	PerBinner []BinnerStats
	// Cycles is the completion time of the slowest replica plus the
	// aggregation pass over the bin region.
	Cycles int64
	// AggregationCycles is the constant-time (per line) merge of partial
	// counts before histogram creation.
	AggregationCycles int64
}

// Seconds converts completion to seconds.
func (s ParallelStats) Seconds(clk hw.Clock) float64 { return clk.Seconds(s.Cycles) }

// ValuesPerSecond is the aggregate sustained rate across replicas.
func (s ParallelStats) ValuesPerSecond(clk hw.Clock) float64 {
	sec := s.Seconds(clk)
	if sec == 0 {
		return 0
	}
	var items int64
	for _, b := range s.PerBinner {
		items += b.Items
	}
	return float64(items) / sec
}

// Finish merges the partial counts into one vector — the adder tree in
// front of the Histogram module — and returns the combined accounting.
// The aggregation streams all regions in lockstep, one memory line per
// cycle per region, so it costs Δ/binsPerLine cycles regardless of how
// many replicas exist (they are read in parallel from separate memories).
func (p *ParallelBinner) Finish() (*bins.Vector, ParallelStats, error) {
	merged := emptyVector(p.geom.Min, p.geom.Divisor, p.geom.NumBins)
	var stats ParallelStats
	laneCycles := make([]int64, 0, len(p.binners))
	for _, b := range p.binners {
		vec, bs := b.Finish()
		stats.PerBinner = append(stats.PerBinner, bs)
		laneCycles = append(laneCycles, bs.Cycles)
		if err := merged.Merge(vec); err != nil {
			return nil, ParallelStats{}, err
		}
	}
	stats.AggregationCycles = hw.AggregationCycles(int(p.geom.NumBins), hw.DefaultBinsPerLine)
	stats.Cycles = hw.CriticalPath(laneCycles, stats.AggregationCycles)
	return merged, stats, nil
}

// LineRateGbps converts a sustained value rate (32-bit values) to the
// equivalent single-column network line rate, the unit §7 argues in.
func LineRateGbps(valuesPerSecond float64) float64 {
	return valuesPerSecond * 4 * 8 / 1e9
}

// ReplicasForLineRate returns how many worst-case Binner replicas are
// needed to keep up with a single column arriving at the given line rate —
// the sizing exercise of §7 (e.g. 10 Gbps needs ⌈312.5M/s ÷ 20M/s⌉ = 16
// worst-case replicas, or 7 with the cache always hitting).
func ReplicasForLineRate(gbps float64, perBinnerValuesPerSec float64) int {
	valuesPerSec := gbps * 1e9 / 8 / 4
	n := int(valuesPerSec / perBinnerValuesPerSec)
	if float64(n)*perBinnerValuesPerSec < valuesPerSec {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
