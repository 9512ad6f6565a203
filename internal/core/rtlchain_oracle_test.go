package core

import (
	"streamhist/internal/bins"
)

// RTLChain is the event-timed counterpart of Scanner.Run: instead of
// evaluating the Table 2 formulas, it walks the bin region slot by slot —
// the memory delivers one bin slot every ScanCyclesPerBin cycles, empty or
// not — observes when each block actually produces its first result, and
// accounts list drains and repeat scans as they happen. The unit tests pin
// the formula-based accounting against these observed times.
type RTLChain struct {
	scanner *Scanner
}

// NewRTLChain wraps a scanner's rate parameters.
func NewRTLChain(s *Scanner) *RTLChain {
	if s == nil {
		s = NewScanner()
	}
	return &RTLChain{scanner: s}
}

// chainProbe watches one block for result emission during the walk.
type chainProbe struct {
	block Block
	pos   int

	firstResult int64 // 0 = not yet
	completion  int64
	lastBuckets int
}

// observe checks whether the block emitted new output at the given cycle.
func (p *chainProbe) observe(cycle int64) {
	n := p.resultLen()
	if n > p.lastBuckets {
		if p.firstResult == 0 {
			p.firstResult = cycle
		}
		p.completion = cycle
		p.lastBuckets = n
	}
}

// resultLen returns the block's current output length.
func (p *chainProbe) resultLen() int {
	switch b := p.block.(type) {
	case *TopKBlock:
		return len(b.Result())
	case *EquiDepthBlock:
		return len(b.Result())
	case *MaxDiffBlock:
		return len(b.Result())
	case *CompressedBlock:
		return len(b.Buckets())
	default:
		return 0
	}
}

// Run streams the vector through the blocks slot by slot and returns the
// observed timings in the same shape as Scanner.Run's accounting.
func (c *RTLChain) Run(vec *bins.Vector, blocks ...Block) ChainResult {
	probes := make([]*chainProbe, len(blocks))
	for i, b := range blocks {
		probes[i] = &chainProbe{block: b, pos: i}
	}
	maxScans := 1
	for _, b := range blocks {
		if n := b.Scans(); n > maxScans {
			maxScans = n
		}
	}

	period := c.scanner.ScanCyclesPerBin
	pass := c.scanner.BlockPassCycles
	delta := int64(vec.NumBins())
	var cycle int64 // end of the most recent scan activity

	res := ChainResult{Delta: delta, Scans: maxScans}

	for scan := 0; scan < maxScans; scan++ {
		for _, p := range probes {
			if p.block.NeedsScan(scan) {
				p.block.BeginScan(scan)
			}
		}
		scanStart := cycle
		for i := int64(0); i < delta; i++ {
			slotCycle := scanStart + (i+1)*period
			count := vec.Count(int(i))
			if count == 0 {
				continue // invalid slot still occupies delivery time
			}
			v := vec.Value(int(i))
			for _, p := range probes {
				if !p.block.NeedsScan(scan) {
					continue
				}
				p.block.Consume(scan, []int64{v}, []int64{count})
				p.observe(slotCycle + int64(p.pos)*pass)
			}
		}
		scanEnd := scanStart + delta*period
		for _, p := range probes {
			if !p.block.NeedsScan(scan) {
				continue
			}
			p.block.EndScan(scan)
			p.observe(scanEnd + int64(p.pos)*pass)
		}
		// Between scans, blocks that keep internal lists drain them before
		// the repeat begins: TopK-style registers shift out one entry per
		// two cycles (this is where the +2T / +2B terms come from).
		drain := int64(0)
		for _, p := range probes {
			var entries int64
			switch b := p.block.(type) {
			case *TopKBlock:
				if scan == 0 {
					entries = int64(b.K)
					// The TopK list IS the result: its first byte appears
					// once the drain completes.
					p.firstResult = scanEnd + 2*entries + int64(p.pos)*pass
					p.completion = p.firstResult
				}
			case *MaxDiffBlock:
				if scan == 0 && b.Scans() > scan+1 {
					entries = int64(b.B)
				}
			case *CompressedBlock:
				if scan == 0 && b.Scans() > scan+1 {
					entries = int64(b.T)
				}
			}
			if 2*entries > drain {
				drain = 2 * entries
			}
		}
		cycle = scanEnd + drain
	}

	for _, p := range probes {
		t := ChainTiming{
			Name:              p.block.Name(),
			Position:          p.pos,
			Scans:             p.block.Scans(),
			FirstResultCycles: p.firstResult,
			CompletionCycles:  p.completion,
		}
		if t.CompletionCycles > res.TotalCycles {
			res.TotalCycles = t.CompletionCycles
		}
		res.Timings = append(res.Timings, t)
	}
	return res
}
