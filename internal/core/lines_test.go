package core

import (
	"fmt"
	"testing"
	"unsafe"

	"streamhist/internal/bins"
	"streamhist/internal/datagen"
	"streamhist/internal/faults"
	"streamhist/internal/hw"
)

// flatModelStats runs vals through the binner's timing model with the
// per-line state the line table replaced: a flat row of commit cycles, one
// entry for every line of the region, and the FIFO cache with a residence
// byte per line (fifoCache, rtl_oracle_test.go). It forgets nothing, so it
// is the reference the line table's sweep is held to. inj, when non-nil,
// drives an ECC memory model the way cfg.Faults drives the binner's.
func flatModelStats(cfg BinnerConfig, pre *Preprocessor, vals []int64, inj *faults.Injector) BinnerStats {
	randomPeriod := float64(cfg.Clock.Hz) / float64(cfg.Mem.RandomOpsPerSec)
	burstPeriod := float64(cfg.Clock.Hz) / float64(cfg.Mem.BurstOpsPerSec)
	latency := float64(cfg.Mem.LatencyCycles)
	binsPerLine := int64(cfg.Mem.BinsPerLine)
	numLines := (pre.NumBins + binsPerLine - 1) / binsPerLine
	pending := make([]float64, numLines)
	cache := newFIFOCache(cfg.CacheBytes, hw.LineBytes, numLines)
	var mem *hw.Memory
	if inj != nil {
		mem = hw.NewMemory(int(pre.NumBins), inj)
	}

	var st BinnerStats
	var pipeTime, opTime, lastCommit float64
	for _, value := range vals {
		addr, ok := pre.Address(value)
		if !ok {
			st.Dropped++
			continue
		}
		st.Items++
		pipeTime += cfg.PipelineCyclesPerItem
		if opTime-pipeTime > 512 {
			pipeTime = opTime - 512
		}
		line := addr / binsPerLine
		hit := cache.Lookup(line)
		var dataReady float64
		if hit {
			dataReady = pipeTime
		} else {
			readIssue := maxf(pipeTime, opTime)
			if pending[line] > readIssue {
				st.StallCycles += int64(pending[line] - readIssue)
				pipeTime, readIssue = pending[line], pending[line]
			}
			opTime = maxf(opTime, readIssue) + randomPeriod
			dataReady = readIssue + latency
			st.MemReadOps++
		}
		var spike float64
		if mem != nil {
			spike = float64(mem.Increment(addr))
		}
		period := randomPeriod
		if hit {
			period = burstPeriod
		}
		opTime += period
		commit := maxf(opTime, dataReady) + latency + spike
		st.MemWriteOps++
		pending[line] = commit
		lastCommit = maxf(lastCommit, commit)
		if !hit {
			cache.Insert(line)
		}
	}
	st.CacheHits, st.CacheMisses = cache.Hits(), cache.Misses()
	st.Cycles = int64(lastCommit + 0.5)
	if mem != nil {
		mem.Counts()
		st.FaultsCorrected, st.BinsQuarantined = mem.Corrected(), mem.Quarantined()
	}
	return st
}

// lineTableStreams are the inputs the line table is held to the flat model
// on, over a region of n bins: scattered, skewed, one that defeats a FIFO
// cache of cacheLines lines — a cycle over one line more than it holds,
// every other value, with scattered values between, so the table also fills
// and sweeps — and a scan that writes every line once, whose writes are all
// in flight at once under a long enough latency.
func lineTableStreams(n int64, cacheLines int, count int) map[string][]int64 {
	rng := datagen.NewRNG(11)
	random := make([]int64, count)
	anti := make([]int64, count)
	scan := make([]int64, count)
	for i := range random {
		random[i] = rng.Int63n(n)
		anti[i] = rng.Int63n(n)
		if i%2 == 0 {
			anti[i] = int64(i/2%(cacheLines+1)) * 8 * 97 % n
		}
		scan[i] = int64(i) * 8 % n
	}
	return map[string][]int64{
		"scan":   scan,
		"random": random,
		"zipf":   datagen.Take(datagen.NewZipf(12, 0, n, 1.1, true), count),
		"hot":    datagen.Take(datagen.NewHotspot(13, 0, n, 0.5, 1e-4), count),
		"anti":   anti,
	}
}

// TestLineTableMatchesFlatModel: the line table, which keeps only the lines
// that can still change a row's timing, accounts every row as the flat
// per-line model does — cycles, stalls, hits, misses, every figure — for
// every cache size, in both host forms of the region and under injected
// latency spikes, and over a latency so long that a scan's writes in flight
// outgrow the table and it must grow. Otherwise it stays small: no per-line
// array.
func TestLineTableMatchesFlatModel(t *testing.T) {
	const n = 1 << 20
	pre, err := RangeFor(0, n-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	spikes := faults.Profile{faults.MemLatencySpike: 0.05, faults.MemReadFlip: 0.01}
	type config struct {
		name string
		cfg  BinnerConfig
	}
	var configs []config
	for _, cacheBytes := range []int{0, 64, 1024, 65536} {
		cfg := DefaultBinnerConfig()
		cfg.CacheBytes = cacheBytes
		configs = append(configs, config{fmt.Sprintf("cache%d", cacheBytes), cfg})
	}
	long := DefaultBinnerConfig()
	long.Mem.LatencyCycles = 200_000
	configs = append(configs, config{"latency200k", long})

	for _, c := range configs {
		for name, vals := range lineTableStreams(n, c.cfg.CacheBytes/hw.LineBytes, 40_000) {
			for _, form := range []string{"dense", "sparse", "faults"} {
				t.Run(c.name+"/"+name+"/"+form, func(t *testing.T) {
					cfg := c.cfg
					var inj *faults.Injector
					region := bins.Dense
					switch form {
					case "sparse":
						region = bins.Sparse
					case "faults":
						cfg.Faults = faults.New(21, spikes)
						inj = faults.New(21, spikes)
					}
					b := newBinner(cfg, pre, region)
					pushPages(b, vals)
					slots, used := len(b.lines.slots), b.lines.used
					_, got := b.Finish()
					if want := flatModelStats(cfg, pre, vals, inj); got != want {
						t.Fatalf("stats = %+v\nwant    %+v", got, want)
					}
					if inj != nil && got.FaultsCorrected == 0 {
						t.Fatal("no fault fired")
					}
					if c.name == "latency200k" {
						if name == "scan" && used <= minLineSlots {
							t.Fatalf("a table holding %d lines never grew", used)
						}
					} else if slots > 8*minLineSlots {
						t.Fatalf("table grew to %d slots", slots)
					}
					b.Release()
				})
			}
		}
	}
}

// lineTableWith returns an empty table for a cache of cacheLines lines.
func lineTableWith(cacheLines int) *lineTable {
	t := new(lineTable)
	t.reset(cacheLines)
	return t
}

// access is one row's use of the table: it reports whether line was
// resident, and makes it resident if not.
func (t *lineTable) access(line int64) bool {
	j := t.find(lineKey(line), 0)
	hit := t.slots[j].resident
	if !hit {
		t.admit(j)
	}
	return hit
}

func (t *lineTable) resident(line int64) bool {
	j, ok := t.probe(lineKey(line))
	return ok && t.slots[j].resident
}

func TestLineTableHitMiss(t *testing.T) {
	lt := lineTableWith(1024 / hw.LineBytes) // 16 lines
	if lt.access(1) {
		t.Error("cold access hit")
	}
	if !lt.access(1) {
		t.Error("resident access missed")
	}
}

func TestLineTableEvictionFIFO(t *testing.T) {
	lt := lineTableWith(2)
	lt.access(1)
	lt.access(2)
	lt.access(3) // evicts 1
	if lt.resident(1) {
		t.Error("line 1 should have been evicted")
	}
	if !lt.resident(2) || !lt.resident(3) {
		t.Error("lines 2 and 3 should be resident")
	}
	// A hit on a resident line must not evict anything.
	lt.access(2)
	if !lt.resident(3) {
		t.Error("refresh of resident line evicted another line")
	}
}

func TestLineTableCacheDisabled(t *testing.T) {
	lt := lineTableWith(0)
	lt.access(1)
	if lt.access(1) {
		t.Error("zero-size cache should always miss")
	}
}

// TestLineTableReset: a reset table holds nothing of what was resident.
func TestLineTableReset(t *testing.T) {
	lt := lineTableWith(1024 / hw.LineBytes)
	lt.access(7)
	lt.access(7)
	lt.reset(1024 / hw.LineBytes)
	if lt.resident(7) || lt.used != 0 {
		t.Error("reset incomplete")
	}
}

// TestLineTableResetIsSparse: a reset table is indistinguishable from a new
// one after the ring wrapped and after sweeps grew the table, and it fills
// from empty again.
func TestLineTableResetIsSparse(t *testing.T) {
	lt := lineTableWith(4)
	for i := int64(0); i < 5000; i++ {
		lt.access(i * 10_007 % (1 << 20))
		j := lt.find(lineKey(i), 0)
		lt.slots[j].commit = float64(i) // in flight past opTime 0: kept
	}
	if len(lt.slots) == minLineSlots {
		t.Fatal("the table never grew")
	}
	lt.reset(4)
	if lt.used != 0 || len(lt.ring) != 0 || lt.head != 0 {
		t.Fatalf("reset left used %d, ring %d, head %d", lt.used, len(lt.ring), lt.head)
	}
	for _, s := range lt.slots {
		if s != (lineSlot{}) {
			t.Fatalf("slot %+v survived reset", s)
		}
	}
	// And it fills from empty again: four lines, no eviction.
	for i := int64(0); i < 4; i++ {
		lt.access(1<<20 - 1 - i)
	}
	for i := int64(0); i < 4; i++ {
		if !lt.resident(1<<20 - 1 - i) {
			t.Fatalf("line %d missing after refill", 1<<20-1-i)
		}
	}
}

// TestLineTableIsWholeHostLines: the ring and the slots fill whole host cache
// lines, so two lanes' tables never share one.
func TestLineTableIsWholeHostLines(t *testing.T) {
	for _, lines := range []int{1, 7, 16, 1000} {
		lt := lineTableWith(lines)
		if b := cap(lt.ring) * 4; b%64 != 0 {
			t.Fatalf("%d lines: ring takes %d bytes", lines, b)
		}
		if b := cap(lt.slots) * int(unsafe.Sizeof(lineSlot{})); b%64 != 0 {
			t.Fatalf("%d lines: slots take %d bytes", lines, b)
		}
	}
}

// TestBinnerRejectsBinsPerLineNotPowerOfTwo: a bin's line is its address
// shifted right, so a line of any other width is refused when the binner is
// built, not mapped wrong.
func TestBinnerRejectsBinsPerLineNotPowerOfTwo(t *testing.T) {
	pre, err := NewPreprocessor(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 8, 16, 6, -8} {
		cfg := DefaultBinnerConfig()
		cfg.Mem.BinsPerLine = n
		refused := func() (refused bool) {
			defer func() { refused = recover() != nil }()
			NewBinner(cfg, pre).Release()
			return false
		}()
		if want := n&(n-1) != 0 || n < 0; refused != want {
			t.Errorf("BinsPerLine %d: refused %v, want %v", n, refused, want)
		}
	}
}
