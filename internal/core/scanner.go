package core

import (
	"streamhist/internal/bins"
	"streamhist/internal/hw"
)

// Scanner streams the binned region from memory into the daisy chain of
// statistic blocks (Figure 11), re-reading it when a block's repeat channel
// asks for another pass. In the prototype the memory delivers one 64-bit
// bin every two cycles in the worst case (hw.DefaultScanCyclesPerBin);
// Δ — the number of bins that must be read out — is the full reserved
// region, empty bins included, which is why scan cost depends on the value
// range and not on the number of rows.
type Scanner struct {
	// ScanCyclesPerBin is the bin delivery period.
	ScanCyclesPerBin int64
	// BlockPassCycles is the per-block pass-through latency in the chain.
	BlockPassCycles int64
}

// NewScanner returns a scanner with the prototype's delivery rate.
func NewScanner() *Scanner {
	return &Scanner{
		ScanCyclesPerBin: hw.DefaultScanCyclesPerBin,
		BlockPassCycles:  hw.DefaultBlockPassCycles,
	}
}

// ChainTiming reports the cycle accounting for one block after a chain run.
type ChainTiming struct {
	Name string
	// Position is the 0-based slot in the daisy chain.
	Position int
	// Scans is how many passes over the bins the block consumed.
	Scans int
	// FirstResultCycles is the Table 2 "result latency": cycles from the
	// first bin retrieved from memory until the block's first result byte.
	FirstResultCycles int64
	// CompletionCycles is when the block's last result byte is out.
	CompletionCycles int64
	// ResultBytes is the size of the block's result output.
	ResultBytes int64
}

// ChainResult is the outcome of running a chain over a binned view.
type ChainResult struct {
	// Delta is the number of bins read per scan (Δ of Table 2).
	Delta int64
	// Scans is the number of passes the scanner performed.
	Scans int
	// Timings holds per-block cycle accounting, in chain order.
	Timings []ChainTiming
	// TotalCycles is when the last block finished.
	TotalCycles int64
	// ScanCyclesPerBin and BlockPassCycles echo the scanner parameters the
	// run used, so the result can be decomposed after the fact (see
	// ChargeProfile).
	ScanCyclesPerBin int64
	BlockPassCycles  int64
}

// Seconds converts total completion to seconds at the given clock.
func (r ChainResult) Seconds(clk hw.Clock) float64 { return clk.Seconds(r.TotalCycles) }

// Run streams the vector through the blocks, performing as many passes as
// the blocks request, and returns the functional results (via the blocks
// themselves) plus the cycle accounting.
func (s *Scanner) Run(vec *bins.Vector, blocks ...Block) ChainResult {
	maxScans := 1
	for _, b := range blocks {
		if n := b.Scans(); n > maxScans {
			maxScans = n
		}
	}
	// The blocks of a pass are listed once before its walk, not asked per
	// bin; a capacity of four holds the paper's whole chain on the stack.
	pass := make([]Block, 0, 4)
	for scan := 0; scan < maxScans; scan++ {
		pass = pass[:0]
		for _, b := range blocks {
			if b.NeedsScan(scan) {
				pass = append(pass, b)
				b.BeginScan(scan)
			}
		}
		// Empty bins are invalid-flagged and never reach a block, so the
		// host walks the occupied ones only; the cycle model below still
		// charges the full Δ read-out.
		vec.Occupied(func(i int, c int64) {
			v := vec.Value(i)
			for _, b := range pass {
				b.Consume(scan, v, c)
			}
		})
		for _, b := range pass {
			b.EndScan(scan)
		}
	}
	return s.account(int64(vec.NumBins()), maxScans, blocks)
}

// account computes the Table 2 cycle model for each block.
func (s *Scanner) account(delta int64, scans int, blocks []Block) ChainResult {
	res := ChainResult{
		Delta: delta, Scans: scans,
		ScanCyclesPerBin: s.ScanCyclesPerBin,
		BlockPassCycles:  s.BlockPassCycles,
	}
	scanCost := s.ScanCyclesPerBin * delta
	for pos, b := range blocks {
		pass := int64(pos) * s.BlockPassCycles
		t := ChainTiming{Name: b.Name(), Position: pos, Scans: b.Scans()}
		switch blk := b.(type) {
		case *TopKBlock:
			// The top list is final only after all bins passed, then the
			// list drains: 2Δ + 2T.
			t.FirstResultCycles = scanCost + 2*int64(blk.K) + pass
			t.CompletionCycles = t.FirstResultCycles
			t.ResultBytes = int64(blk.K) * 8
		case *EquiDepthBlock:
			// The first bucket closes as soon as the running sum reaches
			// the limit — after about Δ/B bins: 2Δ/B.
			t.FirstResultCycles = scanCost/int64(blk.B) + pass
			t.CompletionCycles = scanCost + pass
			t.ResultBytes = int64(blk.B) * 8
		case *MaxDiffBlock:
			// First scan fills the diff list (2Δ+2B), second scan emits
			// the first bucket after 2Δ/B more cycles.
			t.FirstResultCycles = scanCost + 2*int64(blk.B) + scanCost/int64(blk.B) + pass
			t.CompletionCycles = scanCost + 2*int64(blk.B) + scanCost + pass
			t.ResultBytes = int64(blk.B) * 8
		case *CompressedBlock:
			// First scan fills the TopK list (2Δ+2T), second scan's first
			// bucket arrives 2Δ/B later.
			t.FirstResultCycles = scanCost + 2*int64(blk.T) + scanCost/int64(blk.B) + pass
			t.CompletionCycles = scanCost + 2*int64(blk.T) + scanCost + pass
			t.ResultBytes = int64(blk.T+blk.B) * 8
		default:
			t.FirstResultCycles = scanCost + pass
			t.CompletionCycles = scanCost + pass
		}
		if t.CompletionCycles > res.TotalCycles {
			res.TotalCycles = t.CompletionCycles
		}
		res.Timings = append(res.Timings, t)
	}
	return res
}

// ResultLatency returns the Table 2 first-result cycle count for one block
// at chain position pos over a Δ-bin region, without running the blocks —
// pure cycle arithmetic for paper-scale bin counts.
func (s *Scanner) ResultLatency(delta int64, b Block, pos int) int64 {
	res := s.account(delta, b.Scans(), []Block{b})
	return res.Timings[0].FirstResultCycles + int64(pos)*s.BlockPassCycles
}

// Completion returns the cycle at which the block's last result byte is out,
// at chain position pos over a Δ-bin region.
func (s *Scanner) Completion(delta int64, b Block, pos int) int64 {
	res := s.account(delta, b.Scans(), []Block{b})
	return res.Timings[0].CompletionCycles + int64(pos)*s.BlockPassCycles
}

// ResourceEstimate reports the Table 2 synthesis characteristics of a block
// configuration on the Virtex-6 SXT475 prototype: the fraction of chip
// resources used, how usage scales, and the maximum clock frequency.
type ResourceEstimate struct {
	Name string
	// UsagePct is the percentage of the FPGA's logic resources.
	UsagePct float64
	// Scaling describes asymptotic growth with the block's parameter.
	Scaling string
	// MaxFreqMHz is the block's maximum synthesisable clock.
	MaxFreqMHz int
}

// Resources returns the Table 2 resource model for the block. Usage scales
// linearly from the synthesis data points the paper reports (TopK 2.5 % at
// T=64; equi-depth <1 % constant; Max-diff <3 % at B=64; Compressed <3 % at
// T=64).
func Resources(b Block) ResourceEstimate {
	switch blk := b.(type) {
	case *TopKBlock:
		return ResourceEstimate{Name: blk.Name(), UsagePct: 2.5 * float64(blk.K) / 64, Scaling: "O(T)", MaxFreqMHz: 170}
	case *EquiDepthBlock:
		return ResourceEstimate{Name: blk.Name(), UsagePct: 0.9, Scaling: "O(1)", MaxFreqMHz: 240}
	case *MaxDiffBlock:
		return ResourceEstimate{Name: blk.Name(), UsagePct: 2.9 * float64(blk.B) / 64, Scaling: "O(B)", MaxFreqMHz: 170}
	case *CompressedBlock:
		return ResourceEstimate{Name: blk.Name(), UsagePct: 2.9 * float64(blk.T) / 64, Scaling: "O(T)", MaxFreqMHz: 170}
	default:
		return ResourceEstimate{Name: b.Name(), UsagePct: 0, Scaling: "?", MaxFreqMHz: 150}
	}
}
