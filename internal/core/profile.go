package core

import "streamhist/internal/hwprof"

// binnerProf accumulates one lane's cycle attribution in plain local floats
// while the lane streams, and flushes to the shared hwprof.Profiler exactly
// once at Finish/Merge time. The hot loop accumulates raw cause sums per
// page chunk and decomposes them once per chunk (attributeChunk), so the
// profiled hot path costs a pointer test plus a handful of float adds per
// item, and the nil-prof path is the untouched baseline.
//
// The invariant the flush maintains: the six cycle components sum exactly
// to the lane's own BinnerStats.Cycles (integer), so a profile snapshot can
// be checked against the PR 2 critical-path arithmetic cycle-for-cycle.
type binnerProf struct {
	p    *hwprof.Profiler
	lane string

	// Cycle components, in simulated cycles (floats until flush).
	compute   float64 // pipeline issue: what the item costs on infinitely fast memory
	stall     float64 // read-after-write hazard stalls at READ (§5.1.3)
	memWait   float64 // memory-port budget: random/burst op periods at READ+WRITE
	fifoFull  float64 // backpressure: the bounded FIFO ahead of the port filled up
	fifoEmpty float64 // remainder: UPDATE waiting on data (read-latency tail, slack)
	spike     float64 // injected memory latency spikes (fault path)

	// Occurrence counts for the components that are events, not rates.
	stallN, bpN, spikeN int64

	flushed bool
}

// causeSums are a batch's raw per-cause cycles, each summed in row order:
// backpressure, RAW stalls and latency spikes.
type causeSums struct{ bp, stall, spike float64 }

// attributeChunk decomposes one page chunk's advance of the lane completion
// cycle (delta) into causes, taking them in a fixed order until the delta
// is used up: spike, then RAW stall, then pipeline issue, then memory-port
// advance, then backpressure, with any remainder charged to the UPDATE
// stage waiting on data. Taking compute before memWait makes "compute" mean
// what the chunk would cost on infinitely fast memory; the remainder is the
// read-latency tail the FIFO could not hide. The hot loop only sums the raw
// per-cause cycles (pushBatch) and pays this clamped decomposition once per
// chunk; event counts (stallN, bpN, spikeN) are incremented at the point
// each event fires.
func (bp *binnerProf) attributeChunk(delta, issue, backpressure, stall, opAdv, spike float64) {
	if delta <= 0 {
		return
	}
	take := func(x float64) float64 {
		if x < 0 {
			x = 0
		}
		if x > delta {
			x = delta
		}
		delta -= x
		return x
	}
	bp.spike += take(spike)
	bp.stall += take(stall)
	bp.compute += take(issue)
	bp.memWait += take(opAdv)
	bp.fifoFull += take(backpressure)
	bp.fifoEmpty += delta
}

// flushProf publishes the lane's accumulated attribution to the shared
// profiler, exactly once (snapshotStats may run more than once: Finish can
// be called repeatedly, and Merge snapshots the absorbed lane). own must be
// this lane's accounting before folding in merged lanes — merged lanes
// flush themselves. Rounding error is forced onto the largest component so
// the integer node values sum exactly to own.Cycles.
func (b *Binner) flushProf(own BinnerStats) {
	bp := b.prof
	if bp == nil || bp.flushed {
		return
	}
	bp.flushed = true
	comps := []struct {
		module, stage, reason string
		cycles                float64
		events                int64
	}{
		{"binner", "preprocess", hwprof.ReasonCompute, bp.compute, own.Items},
		{"binner", "preprocess", hwprof.ReasonFIFOFull, bp.fifoFull, bp.bpN},
		{"binner", "read", hwprof.ReasonMemWait, bp.stall, bp.stallN},
		{"binner", "write", hwprof.ReasonMemWait, bp.memWait, own.MemWriteOps},
		{"binner", "update", hwprof.ReasonFIFOEmpty, bp.fifoEmpty, own.Items},
		{"mem", "update", hwprof.ReasonSpike, bp.spike, bp.spikeN},
	}
	ints := make([]int64, len(comps))
	var sum int64
	largest := 0
	for i, c := range comps {
		ints[i] = int64(c.cycles + 0.5)
		sum += ints[i]
		if c.cycles > comps[largest].cycles {
			largest = i
		}
	}
	ints[largest] += own.Cycles - sum
	for i, c := range comps {
		n := bp.p.Node(bp.lane, c.module, c.stage, c.reason)
		n.Add(ints[i])
		n.AddEvents(c.events)
	}
	// Event-only nodes: happenings whose cycle cost is zero (cache hits) or
	// already attributed above (ECC corrections ride the memory op periods).
	bp.p.Node(bp.lane, "cache", "lookup", "hit").AddEvents(own.CacheHits)
	bp.p.Node(bp.lane, "cache", "lookup", "miss").AddEvents(own.CacheMisses)
	bp.p.Node(bp.lane, "mem", "update", hwprof.ReasonECC).AddEvents(own.FaultsCorrected)
	bp.p.Node(bp.lane, "mem", "update", "quarantine").AddEvents(own.BinsQuarantined)
}

// ChargeProfile attributes the chain run's cycles to profile nodes under
// the given lane frame, decomposing the critical block's completion per the
// Table 2 formulas: memory scan-out (ScanCyclesPerBin·Δ per pass), the
// daisy-chain pass-through to the block's slot, and the block's own
// processing as the remainder. The three node values sum exactly to
// TotalCycles, so the chain keeps the profile/arithmetic consistency
// invariant. No-op on a nil profiler.
func (r ChainResult) ChargeProfile(p *hwprof.Profiler, lane string) {
	if p == nil || r.TotalCycles <= 0 {
		return
	}
	crit := -1
	for i, t := range r.Timings {
		if crit < 0 || t.CompletionCycles > r.Timings[crit].CompletionCycles {
			crit = i
		}
	}
	total := r.TotalCycles
	blockName := "block"
	var scanPart, daisy int64
	scans := int64(1)
	if crit >= 0 {
		t := r.Timings[crit]
		blockName = t.Name
		scans = int64(t.Scans)
		scanPart = r.ScanCyclesPerBin * r.Delta * scans
		daisy = int64(t.Position) * r.BlockPassCycles
	}
	if daisy > total {
		daisy = total
	}
	if scanPart > total-daisy {
		scanPart = total - daisy
	}
	blockPart := total - daisy - scanPart

	scan := p.Node(lane, "chain", "scan", hwprof.ReasonMemWait)
	scan.Add(scanPart)
	scan.AddEvents(scans)
	p.Node(lane, "chain", "daisy", hwprof.ReasonCompute).Add(daisy)
	p.Node(lane, "chain", blockName, hwprof.ReasonCompute).Add(blockPart)
}
