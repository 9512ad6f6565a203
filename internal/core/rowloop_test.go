package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"streamhist/internal/bins"
	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
	"streamhist/internal/sketch"
)

// pushAllPerRow is PushAll with the binner's row loop written one row at a
// time, address, line table, bin write and all: the loop pushBatch's three
// passes replaced, kept as their reference.
func (b *Binner) pushAllPerRow(values []int64) {
	b.chain.PushAll(values)
	prof := b.prof
	var prevCommit, opBefore float64
	var issueN int64
	var bpSum, stallSum, spikeSum float64
	if prof != nil {
		prevCommit = b.lastCommit
		opBefore = b.opTime
	}

	lt, lineShift := &b.lines, b.lineShift
	for _, value := range values {
		addr, ok := b.pre.Address(value)
		if !ok {
			b.stats.Dropped++
			b.chain.Observe(value)
			continue
		}
		b.stats.Items++
		issueN++

		const maxBacklogCycles = 512
		b.pipeTime += b.cfg.PipelineCyclesPerItem
		if b.opTime-b.pipeTime > maxBacklogCycles {
			if prof != nil {
				bpSum += (b.opTime - maxBacklogCycles) - b.pipeTime
				prof.bpN++
			}
			b.pipeTime = b.opTime - maxBacklogCycles
		}

		key := lineKey(addr >> lineShift)
		j := homeSlot(key, lt.shift)
		slot := &lt.slots[j]
		if slot.key != key {
			j = lt.find(key, b.opTime)
			slot = &lt.slots[j]
		}
		hit := slot.resident
		var dataReady float64
		if hit {
			b.stats.CacheHits++
			dataReady = b.pipeTime
		} else {
			b.stats.CacheMisses++
			readIssue := maxf(b.pipeTime, b.opTime)
			if pendingCommit := slot.commit; pendingCommit > readIssue {
				if prof != nil {
					stallSum += pendingCommit - readIssue
					prof.stallN++
				}
				b.stats.StallCycles += int64(pendingCommit - readIssue)
				b.pipeTime = pendingCommit
				readIssue = pendingCommit
			}
			b.opTime = maxf(b.opTime, readIssue) + b.randomPeriod
			dataReady = readIssue + b.latency
			b.stats.MemReadOps++
		}

		var spike float64
		if b.mem != nil {
			spike = float64(b.mem.Increment(addr))
			if prof != nil && spike > 0 {
				spikeSum += spike
				prof.spikeN++
			}
		} else {
			b.vec.AddAt(int(addr), 1)
		}

		period := b.randomPeriod
		if hit {
			period = b.burstPeriod
		}
		b.opTime += period
		writeIssue := maxf(b.opTime, dataReady)
		commit := writeIssue + b.latency + spike
		b.stats.MemWriteOps++
		slot.commit = commit
		if commit > b.lastCommit {
			b.lastCommit = commit
		}
		if !hit {
			lt.admit(j)
		}
	}

	if prof != nil {
		prof.attributeChunk(b.lastCommit-prevCommit,
			float64(issueN)*b.cfg.PipelineCyclesPerItem,
			bpSum, stallSum, b.opTime-opBefore, spikeSum)
	}
	b.promote()
}

// rowLoopValues is count values over a region of n bins of divisor from
// min: a third from eight hot bins (cache hits, and RAW stalls with the
// cache off), most of the rest scattered over the region (misses, and line
// table sweeps), and one in sixteen outside it on either side (drops).
func rowLoopValues(rng *rand.Rand, min, divisor, n int64, count int) []int64 {
	hot := make([]int64, 8)
	for k := range hot {
		hot[k] = rng.Int64N(n)
	}
	vals := make([]int64, count)
	for i := range vals {
		switch r := rng.IntN(48); {
		case r < 16:
			vals[i] = min + hot[r%len(hot)]*divisor + rng.Int64N(divisor)
		case r == 46:
			vals[i] = min - 1 - rng.Int64N(1000)
		case r == 47:
			vals[i] = min + n*divisor + rng.Int64N(1000)
		default:
			vals[i] = min + rng.Int64N(n*divisor)
		}
	}
	return vals
}

// rowLoopView is what the reference test compares of a finished binner.
type rowLoopView struct {
	stats   BinnerStats
	samples []hwprof.Sample
	values  []int64
	counts  []int64
	sketch  [][]byte
}

func finishRowLoop(t *testing.T, b *Binner, p *hwprof.Profiler) rowLoopView {
	t.Helper()
	vec, stats := b.Finish()
	v := rowLoopView{stats: stats, samples: p.Snapshot().Samples}
	vec.Batches(func(values, counts []int64) {
		v.values = append(v.values, values...)
		v.counts = append(v.counts, counts...)
	})
	raws, err := sketch.EncodeBlocks(b.SketchChain().Blocks())
	if err != nil {
		t.Fatal(err)
	}
	v.sketch = raws
	return v
}

// TestPushMatchesPerRowReference: pushBatch's three passes account, profile
// and count every batch as the per-row loop does — stats, every profile
// node's cycles and events, the counts Batches reads back and the sketch
// chain's bytes — over dense, Divisor 3 and sparse regions and one whose
// line table must grow, with the cache
// off and on, under injected latency spikes and read flips, with the
// profiler on and off. Batches run from one row to past two blocks, and
// single Pushes come between them. A fault-injected binner is dense in any
// form, so the sparse region runs without faults.
func TestPushMatchesPerRowReference(t *testing.T) {
	regions := []struct {
		name            string
		min, divisor, n int64
		form            bins.Form
		latency         int64 // memory latency in cycles; 0 is the default
	}{
		{"dense", -500, 1, 5000, bins.Dense, 0},
		{"divisor3", 1 << 40, 3, 4000, bins.Dense, 0},
		{"sparse", 7, 1, sparseMinBins + 1000, bins.Sparse, 0},
		// Writes in flight outgrow the line table, which grows mid-block.
		{"latency200k", 0, 1, 1 << 20, bins.Dense, 200_000},
	}
	spikes := faults.Profile{faults.MemLatencySpike: 0.05, faults.MemReadFlip: 0.02}
	for _, r := range regions {
		for _, cacheBytes := range []int{0, 1024} {
			for _, faulty := range []bool{false, true} {
				if faulty && r.form == bins.Sparse {
					continue
				}
				for _, profiled := range []bool{false, true} {
					name := fmt.Sprintf("%s/cache%d/faults=%t/prof=%t", r.name, cacheBytes, faulty, profiled)
					t.Run(name, func(t *testing.T) {
						pre, err := NewPreprocessor(r.min, r.divisor, r.n)
						if err != nil {
							t.Fatal(err)
						}
						build := func() (*Binner, *hwprof.Profiler) {
							cfg := DefaultBinnerConfig()
							cfg.CacheBytes = cacheBytes
							if r.latency != 0 {
								cfg.Mem.LatencyCycles = r.latency
							}
							if faulty {
								cfg.Faults = faults.New(31, spikes)
							}
							var p *hwprof.Profiler
							if profiled {
								p = hwprof.New()
								cfg.Prof, cfg.ProfLane = p, "lane1"
							}
							cfg.Sketches = sketch.NewChain(sketch.DefaultChainSpec())
							return newBinner(cfg, pre, r.form), p
						}
						got, gotProf := build()
						want, wantProf := build()
						rng := rand.New(rand.NewPCG(uint64(len(name)), 9))
						vals := rowLoopValues(rng, r.min, r.divisor, r.n, 30_000)
						for len(vals) > 0 {
							if rng.IntN(8) == 0 {
								got.Push(vals[0])
								want.pushAllPerRow(vals[:1])
								vals = vals[1:]
								continue
							}
							k := min(len(vals), 1+rng.IntN(2*blockRows+50))
							got.PushAll(vals[:k])
							want.pushAllPerRow(vals[:k])
							vals = vals[k:]
						}
						g, w := finishRowLoop(t, got, gotProf), finishRowLoop(t, want, wantProf)
						if g.stats != w.stats {
							t.Fatalf("stats\n got %+v\nwant %+v", g.stats, w.stats)
						}
						if w.stats.Dropped == 0 || w.stats.CacheMisses == 0 || (w.stats.CacheHits > 0) != (cacheBytes > 0) ||
							w.stats.StallCycles == 0 || (w.stats.FaultsCorrected > 0) != faulty {
							t.Fatalf("stream exercises too little: %+v", w.stats)
						}
						if !reflect.DeepEqual(g.samples, w.samples) {
							t.Fatalf("profile\n got %+v\nwant %+v", g.samples, w.samples)
						}
						if profiled != (len(w.samples) > 0) {
							t.Fatalf("profiled %t with %d samples", profiled, len(w.samples))
						}
						if !slices.Equal(g.values, w.values) || !slices.Equal(g.counts, w.counts) {
							t.Fatalf("counts differ: %d bins read, want %d", len(g.values), len(w.values))
						}
						if !reflect.DeepEqual(g.sketch, w.sketch) {
							t.Fatal("sketch chains differ")
						}
					})
				}
			}
		}
	}
}
