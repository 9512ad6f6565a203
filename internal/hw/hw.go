// Package hw models the hardware substrate of the prototype platform from
// §6 of the paper: a custom circuit clocked at 150 MHz on a Virtex-6,
// attached to DDR3 memory whose controller sustains 40 million random
// accesses per second in the worst case with an average access latency of
// about 60 cycles (0.4 µs). Bins are 64-bit counters and memory lines pack
// eight bins (§5.1.2).
//
// Nothing here executes on real hardware; the package provides the clock
// and memory arithmetic plus the ECC-checked bin memory that internal/core
// assembles into the statistical circuit, whose binner models the on-chip
// cache of DefaultCacheBytes itself (one table of cache lines and writes in
// flight). The constraints the
// paper's design works around — long memory latency, a bounded op rate,
// tiny on-chip state — are enforced by these models, which is what makes
// the reproduced throughput and latency curves meaningful.
package hw

import "fmt"

// Default platform parameters, taken from §6 of the paper.
const (
	// DefaultClockHz is the circuit clock (150 MHz).
	DefaultClockHz = 150_000_000
	// DefaultMemLatencyCycles is the average off-chip access latency
	// ("around 0.4µs (60 cycles at 150 MHz)", §4).
	DefaultMemLatencyCycles = 60
	// DefaultMemRandomOpsPerSec is the worst-case number of small random
	// read-or-write operations the memory controller sustains per second
	// (§6.1: "40 million read or write accesses per second in the worst
	// case").
	DefaultMemRandomOpsPerSec = 40_000_000
	// DefaultMemBurstOpsPerSec is the faster rate observed for accesses to
	// recently touched lines (§6.1: "when accessing rows in a less random
	// manner, the memory also exhibits a higher access speed"). With one
	// write per cache-hitting update this yields the measured best-case
	// Binner rate of 50 million values per second (Table 1).
	DefaultMemBurstOpsPerSec = 50_000_000
	// DefaultBinsPerLine is how many 64-bit bins one memory line packs
	// (§5.1.2: "memory lines pack multiple bins (in our implementation
	// eight)").
	DefaultBinsPerLine = 8
	// DefaultCacheBytes is the size of the on-chip write-through cache
	// (§5.1.3: "a small amount of on-chip memory ... (1KB)").
	DefaultCacheBytes = 1024
	// DefaultScanCyclesPerBin is the worst-case delivery rate of the
	// sequential bin scan feeding the statistic blocks: one 64-bit bin
	// every two cycles. Together with the paper's observation that the
	// TopK block may need two cycles per item while equi-depth needs one,
	// this reproduces the Table 2 result-latency formulas exactly.
	DefaultScanCyclesPerBin = 2
	// DefaultBlockPassCycles is the per-block pass-through latency in the
	// daisy chain (§6.3: "In our implementation this latency is 2 cycles
	// per block").
	DefaultBlockPassCycles = 2
	// LineBytes is the size of one memory line (8 bins × 8 bytes).
	LineBytes = DefaultBinsPerLine * 8
)

// Clock converts between cycle counts and wall-clock time at a fixed
// frequency.
type Clock struct {
	Hz int64
}

// NewClock returns a clock at the given frequency; hz must be positive.
func NewClock(hz int64) Clock {
	if hz <= 0 {
		panic("hw: clock frequency must be positive")
	}
	return Clock{Hz: hz}
}

// Seconds converts a cycle count to seconds.
func (c Clock) Seconds(cycles int64) float64 { return float64(cycles) / float64(c.Hz) }

// String formats the clock.
func (c Clock) String() string { return fmt.Sprintf("%.0f MHz", float64(c.Hz)/1e6) }

// MemParams captures the off-chip memory model.
type MemParams struct {
	// LatencyCycles is the average access latency in clock cycles.
	LatencyCycles int64
	// RandomOpsPerSec is the worst-case sustainable rate of small random
	// read/write operations.
	RandomOpsPerSec int64
	// BurstOpsPerSec is the higher op rate for accesses with locality
	// (recently touched lines).
	BurstOpsPerSec int64
	// BinsPerLine is how many bins one memory line holds, a power of two.
	BinsPerLine int
}

// DefaultMemParams returns the Maxeler-box DDR3 model from the paper.
func DefaultMemParams() MemParams {
	return MemParams{
		LatencyCycles:   DefaultMemLatencyCycles,
		RandomOpsPerSec: DefaultMemRandomOpsPerSec,
		BurstOpsPerSec:  DefaultMemBurstOpsPerSec,
		BinsPerLine:     DefaultBinsPerLine,
	}
}

// AggregationCycles returns the cost of merging replicated bin regions into
// one before histogram creation (§7, Future Work): the regions live in
// separate memories and are streamed out in lockstep, one line per cycle per
// region, with the adds happening line-parallel in logic. The cost is
// therefore ⌈Δ/binsPerLine⌉ cycles — independent of how many replicas are
// merged. binsPerLine <= 0 falls back to the platform default.
func AggregationCycles(numBins int, binsPerLine int) int64 {
	if numBins <= 0 {
		return 0
	}
	if binsPerLine <= 0 {
		binsPerLine = DefaultBinsPerLine
	}
	return (int64(numBins) + int64(binsPerLine) - 1) / int64(binsPerLine)
}

// CriticalPath returns the completion cycle of a parallel fan-in: every lane
// runs concurrently, so the merged state is ready when the slowest lane has
// committed its last write plus the aggregation pass over the bin regions.
// This is the merged-lane analogue of the single-lane completion cycle that
// feeds the Table 2 arithmetic.
func CriticalPath(laneCycles []int64, aggregationCycles int64) int64 {
	var slowest int64
	for _, c := range laneCycles {
		if c > slowest {
			slowest = c
		}
	}
	return slowest + aggregationCycles
}
