package core

import (
	"fmt"

	"streamhist/internal/bins"
	"streamhist/internal/hist"
	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
	"streamhist/internal/table"
)

// Splitter models the cut-through element of Figure 9: it duplicates the
// byte stream, forwarding the original to the host untouched and feeding
// the copy to the statistical circuit. Its contribution to the host-visible
// path is pure wire latency.
type Splitter struct {
	// CutThroughNanos is the replication delay ("in the order of
	// nanoseconds", §4).
	CutThroughNanos float64
	// IOLatencyMicros is the platform I/O logic latency ("in the order of
	// microseconds, depending almost exclusively on the transmission
	// medium and protocol", §4).
	IOLatencyMicros float64
}

// DefaultSplitter returns the latencies discussed in §4.
func DefaultSplitter() Splitter {
	return Splitter{CutThroughNanos: 10, IOLatencyMicros: 2}
}

// AddedLatencySeconds is the total delay the accelerator inserts into the
// storage→host path — the "bump in the wire".
func (s Splitter) AddedLatencySeconds() float64 {
	return s.CutThroughNanos*1e-9 + s.IOLatencyMicros*1e-6
}

// Config assembles a statistical circuit.
type Config struct {
	// Column tells the Parser which bytes of each row to extract.
	Column ColumnSpec
	// Min and Max bound the column's value domain (host-provided metadata).
	Min, Max int64
	// Divisor coarsens binning; 1 for exact bins.
	Divisor int64
	// TopK is the frequency-list length T (0 disables the block).
	TopK int
	// EquiDepthBuckets enables the equi-depth block with B buckets.
	EquiDepthBuckets int
	// MaxDiffBuckets enables the Max-diff block with B buckets.
	MaxDiffBuckets int
	// CompressedT and CompressedBuckets enable the Compressed block.
	CompressedT, CompressedBuckets int

	// Binner overrides the default Binner model when non-zero.
	Binner BinnerConfig
	// Splitter models the cut-through path.
	Splitter Splitter

	// ParseLatencyMicros is the Parser's fixed FSM latency ("below 2µs for
	// all data source types", §4).
	ParseLatencyMicros float64
}

// DefaultConfig returns the evaluation setup of §6: 256-bucket equi-depth,
// T=64 TopK, B=64 Max-diff and Compressed, default platform.
func DefaultConfig(col ColumnSpec, min, max int64) Config {
	return Config{
		Column:             col,
		Min:                min,
		Max:                max,
		Divisor:            1,
		TopK:               64,
		EquiDepthBuckets:   256,
		MaxDiffBuckets:     64,
		CompressedT:        64,
		CompressedBuckets:  64,
		Binner:             DefaultBinnerConfig(),
		Splitter:           DefaultSplitter(),
		ParseLatencyMicros: 2,
	}
}

// Results carries everything the accelerator produced for one table scan.
type Results struct {
	// TopK is the exact frequency list (nil when disabled).
	TopK []hist.FrequentValue
	// EquiDepth, MaxDiff, Compressed are the produced histograms (nil when
	// the corresponding block is disabled).
	EquiDepth  *hist.Histogram
	MaxDiff    *hist.Histogram
	Compressed *hist.Histogram

	// Bins is the binned sorted view left in accelerator memory.
	Bins *bins.Vector

	// Sketches are the daisy-chained statistic blocks' results (nil when the
	// sketch chain is disabled). After a parallel scan they are the merged
	// chain, covering every lane.
	Sketches sketch.Blocks
	// SketchCycles is the chain's simulated processing cost, charged beside
	// (not inside) the Binner's completion time: the blocks are pipelined on
	// the side path, so they never stall the host stream.
	SketchCycles int64
	// SketchSeconds converts SketchCycles with the circuit clock.
	SketchSeconds float64

	// BinnerStats is the binning pipeline's cycle accounting.
	BinnerStats BinnerStats
	// Chain is the Histogram module's cycle accounting.
	Chain ChainResult

	// BinningSeconds and HistogramSeconds are the two phases' simulated
	// durations; TotalSeconds includes the parser latency.
	BinningSeconds   float64
	HistogramSeconds float64
	TotalSeconds     float64

	// HostPathAddedSeconds is the delay the host-visible data stream
	// suffered — splitter plus I/O only, independent of table size.
	HostPathAddedSeconds float64
}

// Circuit is the assembled statistical accelerator.
type Circuit struct {
	cfg    Config
	parser *Parser
	pre    *Preprocessor
}

// NewCircuit validates the configuration and builds the circuit.
func NewCircuit(cfg Config) (*Circuit, error) {
	if cfg.Max < cfg.Min {
		return nil, fmt.Errorf("core: empty value range [%d, %d]", cfg.Min, cfg.Max)
	}
	if cfg.Divisor == 0 {
		cfg.Divisor = 1
	}
	if cfg.Binner.Clock.Hz == 0 {
		cfg.Binner = DefaultBinnerConfig()
	}
	pre, err := RangeFor(cfg.Min, cfg.Max, cfg.Divisor)
	if err != nil {
		return nil, err
	}
	return &Circuit{
		cfg:    cfg,
		parser: NewParser(cfg.Column),
		pre:    pre,
	}, nil
}

// Process streams the table's pages through the circuit and returns the
// histograms plus cycle accounting.
func (c *Circuit) Process(pages []*page.Page) (*Results, error) {
	values, err := c.parser.ParsePages(pages)
	if err != nil {
		return nil, err
	}
	return c.ProcessValues(values), nil
}

// ProcessValues runs the circuit on an already-extracted column (the
// synthetic-workload path; skips the Parser but keeps its fixed latency in
// the accounting).
func (c *Circuit) ProcessValues(values []int64) *Results {
	binner := NewBinner(c.cfg.Binner, c.pre)
	binner.PushAll(values)
	_, bstats := binner.Finish()
	return c.cfg.Results(binner, bstats, nil)
}

// Results is the unchanged Histogram module of Figure 9 and everything that
// follows it: it instantiates the configured statistic blocks, runs the
// Scanner over b's bin region, and assembles the scan's Results — histograms,
// the finished sketch chain, and the simulated timing on the circuit clock
// (the default clock when the configuration names none). Every path that
// fills a bin region ends here, whether one Binner filled it or it is the
// survivor of a lane merge; bstats is passed in because a fan-in replaces the
// survivor's completion cycle with the critical path. The histogram chain
// and the sketch chain are charged to prof under the "merged" frame (nil
// leaves the profile alone).
func (c Config) Results(b *Binner, bstats BinnerStats, prof *hwprof.Profiler) *Results {
	vec := b.Vector()
	total := vec.Total()
	var (
		topk *TopKBlock
		ed   *EquiDepthBlock
		md   *MaxDiffBlock
		comp *CompressedBlock
	)
	blocks := make([]Block, 0, 4)
	if c.TopK > 0 {
		topk = NewTopKBlock(c.TopK)
		blocks = append(blocks, topk)
	}
	if c.EquiDepthBuckets > 0 {
		ed = NewEquiDepthBlock(c.EquiDepthBuckets, total)
		blocks = append(blocks, ed)
	}
	if c.MaxDiffBuckets > 0 {
		md = NewMaxDiffBlock(c.MaxDiffBuckets)
		blocks = append(blocks, md)
	}
	if c.CompressedBuckets > 0 && c.CompressedT > 0 {
		comp = NewCompressedBlock(c.CompressedT, c.CompressedBuckets, total)
		blocks = append(blocks, comp)
	}
	chain := NewScanner().Run(vec, blocks...)
	chain.ChargeProfile(prof, "merged")

	clk := c.Binner.Clock
	if clk.Hz == 0 {
		clk = hw.NewClock(hw.DefaultClockHz)
	}
	res := &Results{
		Bins:                 vec,
		BinnerStats:          bstats,
		Chain:                chain,
		BinningSeconds:       bstats.Seconds(clk),
		HistogramSeconds:     chain.Seconds(clk),
		HostPathAddedSeconds: c.Splitter.AddedLatencySeconds(),
	}
	res.TotalSeconds = c.ParseLatencyMicros*1e-6 + res.BinningSeconds + res.HistogramSeconds
	if sc := b.SketchChain(); sc != nil {
		// After a merge the chain covers every surviving lane plus replays;
		// retired lanes' discarded sketch work is never attributed.
		sc.Charge(prof, "merged")
		res.Sketches = sc.Blocks()
		res.SketchCycles = sc.TotalCycles()
		res.SketchSeconds = clk.Seconds(res.SketchCycles)
	}

	distinct := int64(vec.Cardinality())
	if topk != nil {
		res.TopK = topk.Result()
	}
	if ed != nil {
		res.EquiDepth = &hist.Histogram{
			Kind: hist.EquiDepth, Buckets: ed.Result(),
			Total: total, DistinctTotal: distinct,
		}
	}
	if md != nil {
		res.MaxDiff = &hist.Histogram{
			Kind: hist.MaxDiff, Buckets: md.Result(),
			Total: total, DistinctTotal: distinct,
		}
	}
	if comp != nil {
		res.Compressed = &hist.Histogram{
			Kind: hist.Compressed, Buckets: comp.Buckets(), Frequent: comp.Frequent(),
			Total: total, DistinctTotal: distinct,
		}
	}
	return res
}

// ProcessRelation encodes the relation to pages and processes them —
// the full storage→accelerator path in one call.
func ProcessRelation(rel *table.Relation, column string, cfg func(Config) Config) (*Results, error) {
	spec, err := SpecFor(rel.Schema, column)
	if err != nil {
		return nil, err
	}
	col := rel.ColumnByName(column)
	min, max, err := ColumnRange(col)
	if err != nil {
		return nil, err
	}
	c := DefaultConfig(spec, min, max)
	if cfg != nil {
		c = cfg(c)
	}
	circuit, err := NewCircuit(c)
	if err != nil {
		return nil, err
	}
	return circuit.Process(page.Encode(rel))
}

// ColumnRange returns the smallest and largest value of a column — the
// host-provided metadata a circuit is sized from. An empty column is an
// error: there is no range to size for.
func ColumnRange(col []int64) (min, max int64, err error) {
	if len(col) == 0 {
		return 0, 0, fmt.Errorf("core: empty column")
	}
	min, max = col[0], col[0]
	for _, v := range col {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, nil
}
