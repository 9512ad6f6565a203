// Benchmarks, one group per table/figure of the paper's evaluation. The
// go-test benches measure the real Go cost of each component; experiments
// whose paper axis is *simulated hardware seconds* additionally report that
// as a custom metric (sim-Mvals/s, sim-ms), so `go test -bench=.` prints
// both views. `cmd/histbench` renders the full paper-style tables.
package streamhist_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"streamhist"
	"streamhist/internal/bins"
	"streamhist/internal/client"
	"streamhist/internal/core"
	"streamhist/internal/datagen"
	"streamhist/internal/dbms"
	"streamhist/internal/hist"
	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/obs/timeline"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/stream"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

var clk = hw.NewClock(hw.DefaultClockHz)

// --- Table 1: Binner throughput (worst / best / ideal) ---------------------

func benchmarkBinner(b *testing.B, vals []int64, max int64, cfg core.BinnerConfig) {
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		pre, err := core.RangeFor(0, max, 1)
		if err != nil {
			b.Fatal(err)
		}
		binner := core.NewBinner(cfg, pre)
		binner.PushAll(vals)
		_, stats := binner.Finish()
		rate = stats.ValuesPerSecond(clk)
	}
	b.ReportMetric(rate/1e6, "sim-Mvals/s")
	b.ReportMetric(float64(len(vals))*float64(b.N)/b.Elapsed().Seconds()/1e6, "host-Mvals/s")
}

func BenchmarkTable1BinnerWorstCase(b *testing.B) {
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = int64(i%4096) * int64(hw.DefaultBinsPerLine)
	}
	benchmarkBinner(b, vals, 4096*8, core.DefaultBinnerConfig())
}

func BenchmarkTable1BinnerBestCase(b *testing.B) {
	benchmarkBinner(b, make([]int64, 200_000), 100, core.DefaultBinnerConfig())
}

func BenchmarkTable1BinnerIdealPipeline(b *testing.B) {
	cfg := core.DefaultBinnerConfig()
	cfg.Mem.RandomOpsPerSec = 1 << 40
	cfg.Mem.BurstOpsPerSec = 1 << 40
	cfg.Mem.LatencyCycles = 0
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = int64(i%4096) * int64(hw.DefaultBinsPerLine)
	}
	benchmarkBinner(b, vals, 4096*8, cfg)
}

// BenchmarkBinnerPush isolates the binner's per-row loop — address, line
// table, bin write — on three columns of the served relation:
// 50 bins, ~200 k bins and ~10 M bins. Rows arrive in page batches of 127,
// as on a lane. Building and releasing the binner stay outside the timer,
// so a wide column's region comes off the free list as it does on a server,
// and B/op is what the pushes themselves allocate.
func BenchmarkBinnerPush(b *testing.B) {
	rel := tpch.Lineitem(200_000, 1, 42)
	for _, col := range []string{"l_quantity", "l_orderkey", "l_extendedprice"} {
		b.Run(col, func(b *testing.B) {
			vals := rel.ColumnByName(col)
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			pre, err := core.RangeFor(lo, hi, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * len(vals)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				binner := core.NewBinner(core.DefaultBinnerConfig(), pre)
				b.StartTimer()
				for off := 0; off < len(vals); off += 127 {
					binner.PushAll(vals[off:min(off+127, len(vals))])
				}
				b.StopTimer()
				binner.Release()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/row")
		})
	}
}

// BenchmarkLaneRegion is one lane's whole bin-region work on three columns
// of the served relation — the friendly one, the dense one whose lines miss
// the cache, and the wide one: the half of the rows one of two lanes bins, pushed in page batches of 127, then FoldSketches, where a
// lane combines its sparse region's logs. BenchmarkBinnerPush stops before
// FoldSketches, so work a change moves from the pushes into the combine
// shows here and not there. Building and releasing the binner stay outside
// the timer, as there.
func BenchmarkLaneRegion(b *testing.B) {
	rel := tpch.Lineitem(200_000, 1, 42)
	for _, col := range []string{"l_quantity", "l_orderkey", "l_extendedprice"} {
		b.Run(col, func(b *testing.B) {
			all := rel.ColumnByName(col)
			lo, hi := all[0], all[0]
			for _, v := range all {
				lo, hi = min(lo, v), max(hi, v)
			}
			pre, err := core.RangeFor(lo, hi, 1)
			if err != nil {
				b.Fatal(err)
			}
			vals := all[:len(all)/2]
			b.SetBytes(int64(8 * len(vals)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				binner := core.NewBinner(core.DefaultBinnerConfig(), pre)
				b.StartTimer()
				for off := 0; off < len(vals); off += 127 {
					binner.PushAll(vals[off:min(off+127, len(vals))])
				}
				binner.FoldSketches()
				b.StopTimer()
				binner.Release()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/row")
		})
	}
}

// --- Fig 1 / Fig 21: join executors under good and bad plans ---------------

func q1Fixture(b *testing.B, rows, spike int) (*dbms.Database, []int64) {
	b.Helper()
	db := dbms.NewDatabase(dbms.DBx())
	db.AddTable(tpch.Lineitem(rows, 1, 91))
	db.AddTable(tpch.Customer(20_000, 92))
	db.MutateColumn("lineitem", func(rel *table.Relation) {
		tpch.InflateValue(rel, "l_extendedprice", 200100, spike, 93)
	})
	vals := dbms.FilterEqualsProject(db.Table("lineitem"), "l_extendedprice", 200100, "l_tax", "l_extendedprice")
	return db, vals
}

func BenchmarkFig1JoinNLJOutdatedStats(b *testing.B) {
	db, vals := q1Fixture(b, 300_000, 3_000)
	customer := db.Table("customer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbms.NLJCountLess(vals, customer, 10_000)
	}
}

func BenchmarkFig1JoinSMJAccurateStats(b *testing.B) {
	db, vals := q1Fixture(b, 300_000, 3_000)
	customer := db.Table("customer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbms.SortCountLess(vals, customer, 10_000)
	}
}

func BenchmarkFig21EqualityNLJ(b *testing.B) {
	db, vals := q1Fixture(b, 300_000, 2_000)
	customer := db.Table("customer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbms.NLJCountEquals(vals, customer, 15_000)
	}
}

func BenchmarkFig21EqualitySMJ(b *testing.B) {
	db, vals := q1Fixture(b, 300_000, 2_000)
	customer := db.Table("customer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbms.SMJCountEquals(vals, customer, 15_000)
	}
}

// --- Fig 2 / Fig 16 / Fig 17: analyzer cost vs the accelerator -------------

func BenchmarkFig16AcceleratorFullScan(b *testing.B) {
	rel := tpch.Lineitem(300_000, 10, 94)
	vals := rel.ColumnByName("l_quantity")
	b.ResetTimer()
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := streamhist.Scan(vals)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.TotalSeconds
	}
	b.ReportMetric(sim*1e3, "sim-ms")
}

func benchmarkAnalyze(b *testing.B, p dbms.Personality, column string, pct float64) {
	rel := tpch.Lineitem(300_000, 10, 95)
	tbl := dbms.NewTable(rel, dbms.InMemory)
	a := dbms.NewAnalyzer(p)
	b.ResetTimer()
	var model float64
	for i := 0; i < b.N; i++ {
		res, err := a.Analyze(tbl, dbms.AnalyzeOptions{Column: column, SamplePct: pct, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		model = res.Stats.ModelSeconds
	}
	b.ReportMetric(model, "model-s")
}

func BenchmarkFig16AnalyzeDBxFull(b *testing.B)     { benchmarkAnalyze(b, dbms.DBx(), "l_quantity", 100) }
func BenchmarkFig16AnalyzeDBxSampled5(b *testing.B) { benchmarkAnalyze(b, dbms.DBx(), "l_quantity", 5) }
func BenchmarkFig16AnalyzeDByFull(b *testing.B)     { benchmarkAnalyze(b, dbms.DBy(), "l_quantity", 100) }
func BenchmarkFig16AnalyzeDBySampled5(b *testing.B) { benchmarkAnalyze(b, dbms.DBy(), "l_quantity", 5) }

// --- Fig 18: analyze from a sorted index ------------------------------------

func BenchmarkFig18AnalyzeFromIndex(b *testing.B) {
	rel := tpch.Lineitem(300_000, 10, 96)
	tbl := dbms.NewTable(rel, dbms.InMemory)
	idx, err := dbms.CreateIndex(tbl, "l_extendedprice")
	if err != nil {
		b.Fatal(err)
	}
	a := dbms.NewAnalyzer(dbms.DBx())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AnalyzeFromIndex(tbl, idx, dbms.AnalyzeOptions{Column: "l_extendedprice"}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 19: cardinality sensitivity ----------------------------------------

func BenchmarkFig19AnalyzeLowCardinality(b *testing.B) {
	benchmarkAnalyze(b, dbms.DBx(), "l_quantity", 100)
}

func BenchmarkFig19AnalyzeHighCardinality(b *testing.B) {
	benchmarkAnalyze(b, dbms.DBx(), "l_extendedprice", 100)
}

// --- Fig 20: skew sensitivity ------------------------------------------------

func benchmarkBinnerSkew(b *testing.B, s float64) {
	var vals []int64
	if s == 0 {
		vals = datagen.Take(datagen.NewUniform(97, 0, 2048), 300_000)
	} else {
		vals = datagen.Take(datagen.NewZipf(97, 0, 2048, s, true), 300_000)
	}
	benchmarkBinner(b, vals, 2047, core.DefaultBinnerConfig())
}

func BenchmarkFig20SkewUniform(b *testing.B) { benchmarkBinnerSkew(b, 0) }
func BenchmarkFig20SkewZipf035(b *testing.B) { benchmarkBinnerSkew(b, 0.35) }
func BenchmarkFig20SkewZipf075(b *testing.B) { benchmarkBinnerSkew(b, 0.75) }
func BenchmarkFig20SkewZipf100(b *testing.B) { benchmarkBinnerSkew(b, 1.0) }

// --- Table 2 / Fig 22: statistic blocks over the binned view ----------------

func blockFixture() *bins.Vector {
	return bins.Build(datagen.Take(datagen.NewZipf(98, 0, 100_000, 0.8, true), 500_000), 1)
}

func benchmarkBlock(b *testing.B, mk func(total int64) core.Block) {
	vec := blockFixture()
	scanner := core.NewScanner()
	b.ResetTimer()
	var sim int64
	for i := 0; i < b.N; i++ {
		res := scanner.Run(vec, mk(vec.Total()))
		sim = res.TotalCycles
	}
	b.ReportMetric(clk.Seconds(sim)*1e3, "sim-ms")
	b.ReportMetric(float64(vec.NumBins()), "bins")
}

func BenchmarkFig22TopK(b *testing.B) {
	benchmarkBlock(b, func(int64) core.Block { return core.NewTopKBlock(64) })
}

func BenchmarkFig22EquiDepth(b *testing.B) {
	benchmarkBlock(b, func(t int64) core.Block { return core.NewEquiDepthBlock(64, t) })
}

func BenchmarkFig22MaxDiff(b *testing.B) {
	benchmarkBlock(b, func(int64) core.Block { return core.NewMaxDiffBlock(64) })
}

func BenchmarkFig22Compressed(b *testing.B) {
	benchmarkBlock(b, func(t int64) core.Block { return core.NewCompressedBlock(64, 64, t) })
}

func BenchmarkTable2AllBlocksChained(b *testing.B) {
	vec := blockFixture()
	scanner := core.NewScanner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanner.Run(vec,
			core.NewTopKBlock(64),
			core.NewEquiDepthBlock(64, vec.Total()),
			core.NewMaxDiffBlock(64),
			core.NewCompressedBlock(64, 64, vec.Total()))
	}
}

// --- §7 scale-up / §4 regions / data path ------------------------------------

func benchmarkScaleUp(b *testing.B, replicas int) {
	vals := make([]int64, 400_000)
	for i := range vals {
		vals[i] = int64(i%4096) * int64(hw.DefaultBinsPerLine)
	}
	b.ResetTimer()
	var gbps float64
	for i := 0; i < b.N; i++ {
		pb, err := core.NewParallelBinner(replicas, core.DefaultBinnerConfig(), 0, 4096*8, 1)
		if err != nil {
			b.Fatal(err)
		}
		pb.PushAll(vals)
		_, stats, err := pb.Finish()
		if err != nil {
			b.Fatal(err)
		}
		gbps = core.LineRateGbps(stats.ValuesPerSecond(clk))
	}
	b.ReportMetric(gbps, "sim-Gbps")
}

func BenchmarkScaleUpReplicas1(b *testing.B)  { benchmarkScaleUp(b, 1) }
func BenchmarkScaleUpReplicas4(b *testing.B)  { benchmarkScaleUp(b, 4) }
func BenchmarkScaleUpReplicas16(b *testing.B) { benchmarkScaleUp(b, 16) }

func benchmarkRegions(b *testing.B, regions int) {
	scans := make([]core.TableScan, 6)
	for i := range scans {
		scans[i] = core.TableScan{
			Name:   "t",
			Values: datagen.Take(datagen.NewUniform(uint64(300+i), 0, 1<<20), 40_000),
			Min:    0, Max: 1<<20 - 1, Divisor: 1,
		}
	}
	cfg := core.DefaultConfig(core.ColumnSpec{Offset: 0, Type: table.Int64}, 0, 1<<20-1)
	b.ResetTimer()
	var sim float64
	for i := 0; i < b.N; i++ {
		pc, err := core.NewPipelinedCircuit(cfg, regions)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pc.Process(scans)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.Seconds(clk)
	}
	b.ReportMetric(sim*1e3, "sim-ms")
}

func BenchmarkRegionsSingleBuffered(b *testing.B) { benchmarkRegions(b, 1) }
func BenchmarkRegionsDoubleBuffered(b *testing.B) { benchmarkRegions(b, 2) }

func BenchmarkDataPathTap(b *testing.B) {
	rel := tpch.Lineitem(50_000, 1, 301)
	dp, err := stream.NewDataPath(rel, "l_extendedprice", stream.PCIeGen1x8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := dp.Scan(io.Discard, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(res.HostBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Scan(io.Discard, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelDataPath measures the sharded data path at 1/2/4/8
// lanes. sim-Mvals/s is the simulated merged binning rate (max-lane
// critical path plus the aggregation pass); the ns/op axis is the real Go
// cost of fanning the same pages out to N goroutine lanes and merging. The
// column is l_quantity — a small value domain, so Δ (and the merge pass)
// stays negligible next to the binning work, the regime where §7's lane
// replication pays.
func BenchmarkParallelDataPath(b *testing.B) {
	rel := tpch.Lineitem(100_000, 10, 305)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			dp, err := stream.NewParallelDataPath(rel, "l_quantity", stream.TenGbE, shards)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var res *stream.ParallelScanResult
			for i := 0; i < b.N; i++ {
				res, err = dp.Scan(io.Discard, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(res.HostBytes)
			b.ReportMetric(res.Results.BinnerStats.ValuesPerSecond(clk)/1e6, "sim-Mvals/s")
			b.ReportMetric(float64(res.CriticalPathCycles), "sim-cycles")
		})
	}
}

// BenchmarkParallelDataPathProf measures the hardware profiler's overhead on
// the 4-shard parallel data path: "noop" runs with a nil Prof (every
// attribution site degrades to one nil check per Push), "profiler" with a
// live hwprof.Profiler receiving the per-lane cycle attribution. The hot loop only accumulates six float64s per Push; node
// lookups and atomics happen once per lane at flush, so the two ns/op
// figures should stay within a few percent.
func BenchmarkParallelDataPathProf(b *testing.B) {
	rel := tpch.Lineitem(100_000, 10, 305)
	for _, mode := range []struct {
		name string
		mk   func() *hwprof.Profiler
	}{
		{"noop", func() *hwprof.Profiler { return nil }},
		{"profiler", hwprof.New},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dp, err := stream.NewParallelDataPath(rel, "l_quantity", stream.TenGbE, 4)
			if err != nil {
				b.Fatal(err)
			}
			dp.Prof = mode.mk()
			b.ReportAllocs()
			var res *stream.ParallelScanResult
			for i := 0; i < b.N; i++ {
				res, err = dp.Scan(io.Discard, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(res.HostBytes)
		})
	}
}

// BenchmarkParallelDataPathSketch measures the sketch chain's real-CPU cost
// on the 4-shard parallel data path. "nil" is the disabled configuration —
// NewChain returns nil and the Binner hot path pays a single pointer test
// per value — and is the ≤5% overhead gate recorded in EXPERIMENTS.md.
// "chain" runs the full default chain (HLL p=12, SpaceSaving k=16, window
// 1024) per lane with the fan-in merge, the actual price of NDV + heavy
// hitters + window riding a served scan.
func BenchmarkParallelDataPathSketch(b *testing.B) {
	rel := tpch.Lineitem(100_000, 10, 305)
	for _, mode := range []struct {
		name string
		spec sketch.ChainSpec
	}{
		{"nil", sketch.ChainSpec{}},
		{"chain", sketch.DefaultChainSpec()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dp, err := stream.NewParallelDataPath(rel, "l_quantity", stream.TenGbE, 4)
			if err != nil {
				b.Fatal(err)
			}
			dp.Sketch = mode.spec
			b.ReportAllocs()
			var res *stream.ParallelScanResult
			for i := 0; i < b.N; i++ {
				res, err = dp.Scan(io.Discard, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(res.HostBytes)
			b.ReportMetric(float64(res.Results.SketchCycles), "sim-sketch-cycles")
		})
	}
}

// BenchmarkParallelDataPathWide is the same path over the wide-domain column
// the benchmark of record calls `widedomain`: l_extendedprice spans ~10 M
// bins of which a scan fills at most one per row, so host cost is whatever
// the bin region costs per scan — building or recycling it per lane, merging
// the lanes, walking it for the histogram chain and the distinct count — and
// almost nothing per value. The default sketch chain rides along, as it does
// on a served scan. sim-agg-cycles is the Δ-priced fan-in pass: it must not
// move when the host stops paying per bin.
func BenchmarkParallelDataPathWide(b *testing.B) {
	rel := tpch.Lineitem(100_000, 1, 306)
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dp, err := stream.NewParallelDataPath(rel, "l_extendedprice", stream.TenGbE, shards)
			if err != nil {
				b.Fatal(err)
			}
			dp.Sketch = sketch.DefaultChainSpec()
			b.ReportAllocs()
			var res *stream.ParallelScanResult
			for i := 0; i < b.N; i++ {
				res, err = dp.Scan(io.Discard, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(res.HostBytes)
			b.ReportMetric(float64(res.AggregationCycles), "sim-agg-cycles")
			b.ReportMetric(float64(res.Results.Chain.TotalCycles), "sim-chain-cycles")
		})
	}
}

// BenchmarkServedScan is the whole chain a user sees — page images, frames,
// a real loopback TCP socket, client verify, sink — with the benchmark of
// record's relation and server configuration. "raw" moves bytes only, so it
// is all transport; "l_quantity" adds the side path with the default sketch
// chain, and "l_extendedprice" the same over a 10 M-bin region, whose lanes
// keep it sparse. allocs/op and writes/op are what the perf gate watches: transport is
// allocation-free per frame (the server sends its stored frames, the client
// reads in place), so a per-frame allocation creeping back shows as ~25 more
// allocs/op; and the server hands each frame to the socket in one Write, so
// writes/op is the frame count plus the summary's, and a return to chunked
// writes multiplies it. The "obs-off" rows run the same scans against a
// second server whose bundle is empty (&obs.Obs{}: no registry, tracer or
// profiler), the served path's observability baseline; the "timeline" rows
// against a third whose default bundle a started timeline samples once per
// second on its own goroutine, the cost histserved always pays for it.
func BenchmarkServedScan(b *testing.B) {
	rel := tpch.Lineitem(200_000, 1, 307)
	benchmarkServed(b, rel, nil)
	b.Run("obs-off", func(b *testing.B) { benchmarkServed(b, rel, &obs.Obs{}) })
	b.Run("timeline", func(b *testing.B) {
		o := obs.New()
		tl := timeline.New(o, "")
		tl.Start()
		defer tl.Close()
		benchmarkServed(b, rel, o)
	})
}

// benchmarkServed serves rel from a server with the given bundle (nil gets
// the default one) on a loopback listener and runs the raw, l_quantity and
// l_extendedprice rows against it.
func benchmarkServed(b *testing.B, rel *table.Relation, o *obs.Obs) {
	srv := server.New(server.Config{ShardLanes: 2, Obs: o})
	if err := srv.Register(rel); err != nil {
		b.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ln := &writeCountingListener{Listener: tcp}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()
	for _, mode := range []struct{ name, column string }{
		{"raw", ""},
		{"l_quantity", "l_quantity"},
		{"l_extendedprice", "l_extendedprice"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c, err := client.Dial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// Warm up: the first scan encodes the relation and fills the pools.
			sum, err := c.Scan(rel.Name, mode.column, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sum.Bytes))
			b.ReportAllocs()
			b.ResetTimer()
			writes := ln.writes.Load()
			for i := 0; i < b.N; i++ {
				if _, err := c.Scan(rel.Name, mode.column, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ln.writes.Load()-writes)/float64(b.N), "writes/op")
		})
	}
}

// writeCountingListener counts the Write calls the server makes on every
// connection it accepts.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{Conn: conn, writes: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func BenchmarkHistogramSerialization(b *testing.B) {
	vec := bins.Build(datagen.Take(datagen.NewZipf(302, 0, 5000, 0.8, true), 100_000), 1)
	h := hist.BuildCompressed(vec, 64, 256)
	data, err := h.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var back hist.Histogram
			if err := back.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkParserThroughput(b *testing.B) {
	rel := tpch.Lineitem(50_000, 1, 99)
	pages := page.Encode(rel)
	var stream []byte
	for _, pg := range pages {
		stream = append(stream, pg.Bytes()...)
	}
	spec, err := core.SpecFor(rel.Schema, "l_extendedprice")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewParser(spec)
		if _, err := p.Feed(stream, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftwareHistograms(b *testing.B) {
	vec := bins.Build(datagen.Take(datagen.NewZipf(100, 0, 10_000, 0.9, true), 200_000), 1)
	b.Run("equidepth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.BuildEquiDepth(vec, 256)
		}
	})
	b.Run("maxdiff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.BuildMaxDiff(vec, 64)
		}
	})
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.BuildCompressed(vec, 64, 64)
		}
	})
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.BuildTopK(vec, 64)
		}
	})
}

func BenchmarkVOptimalDP(b *testing.B) {
	vec := bins.Build(datagen.Take(datagen.NewZipf(101, 0, 500, 0.9, true), 50_000), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.BuildVOptimal(vec, 32)
	}
}
