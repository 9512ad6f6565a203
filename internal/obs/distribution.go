package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/hist"
)

// Distribution geometry: log-linear bins, the classic HDR layout. Values
// below 2·subBuckets are recorded exactly; above that, each power-of-two
// octave is sliced into subBuckets linear sub-bins, bounding the relative
// quantisation error at 1/subBuckets (6.25%) across the whole int64 range.
// The result is a fixed array of atomic counters — the same "binned sorted
// view in bounded memory" shape as the paper's Binner region, just keyed by
// magnitude instead of column value — over which the repository's own
// equi-depth construction computes quantiles at scrape time.
const (
	distSubBits     = 4
	distSubBuckets  = 1 << distSubBits // 16
	distFirstOctave = distSubBits + 1  // values < 1<<distFirstOctave are exact
	distNumBins     = 2*distSubBuckets + (63-distFirstOctave)*distSubBuckets
)

// distIndex maps a non-negative value to its bin.
func distIndex(v int64) int {
	if v < 2*distSubBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= distFirstOctave
	sub := (v >> uint(exp-distSubBits)) - distSubBuckets
	return 2*distSubBuckets + (exp-distFirstOctave)*distSubBuckets + int(sub)
}

// distLow returns the lowest value mapping to bin i — the representative the
// quantile machinery uses. Monotonically increasing in i.
func distLow(i int) int64 {
	if i < 2*distSubBuckets {
		return int64(i)
	}
	i -= 2 * distSubBuckets
	exp := distFirstOctave + i/distSubBuckets
	sub := int64(i % distSubBuckets)
	base := int64(1) << uint(exp)
	return base + sub*(base>>distSubBits)
}

// Distribution is a lock-free streaming summary of an observed quantity
// (latency, size): Observe costs three atomic adds and zero allocations.
// Quantiles are produced on demand by running the recorded bins through the
// hist package's equi-depth construction — the paper's own algorithm
// summarising the system's own telemetry. Nil receivers no-op.
type Distribution struct {
	name  string
	scale float64 // exposition multiplier (1e-9: observe ns, expose seconds)

	count atomic.Int64
	sum   atomic.Int64
	bin   [distNumBins]atomic.Int64

	// Exemplar slot, strictly off the Observe hot path: only
	// ObserveWithExemplar (called at most once per scan, never per page)
	// takes the mutex. See Exemplar for the retention policy.
	exMu sync.Mutex
	ex   Exemplar
}

// Exemplar links an observed tail value to the distributed trace that
// produced it, in the OpenMetrics sense: a /metrics scrape of a latency
// summary can jump straight to the trace behind its p99.
type Exemplar struct {
	// Value is the observed value in pre-scale units (the exposition
	// multiplies by Scale, same as the quantile samples).
	Value int64
	// TraceID is the distributed trace the observation belonged to.
	TraceID uint64
	// WhenNS is when the exemplar was recorded (unix nanoseconds).
	WhenNS int64
}

// exemplarTTL bounds how long a large exemplar shadows smaller, fresher
// ones: after this window any traced observation may take the slot, so the
// exposed exemplar always points at a recent trace even when the historic
// tail was worse.
const exemplarTTL = 60 * time.Second

// ObserveWithExemplar records v like Observe and offers (v, traceID) to the
// exemplar slot. Retention policy: the slot keeps the largest traced value
// seen recently — a candidate replaces the incumbent when its value is at
// least as large, or when the incumbent is older than a minute. Zero
// traceIDs record the value but never touch the slot. Nil-safe.
func (d *Distribution) ObserveWithExemplar(v int64, traceID uint64) {
	d.Observe(v)
	if d == nil || traceID == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	now := time.Now().UnixNano()
	d.exMu.Lock()
	if v >= d.ex.Value || d.ex.TraceID == 0 || now-d.ex.WhenNS > int64(exemplarTTL) {
		d.ex = Exemplar{Value: v, TraceID: traceID, WhenNS: now}
	}
	d.exMu.Unlock()
}

// Exemplar returns the current exemplar and whether one is set.
func (d *Distribution) Exemplar() (Exemplar, bool) {
	if d == nil {
		return Exemplar{}, false
	}
	d.exMu.Lock()
	ex := d.ex
	d.exMu.Unlock()
	return ex, ex.TraceID != 0
}

func newDistribution(name string, scale float64) *Distribution {
	if scale == 0 {
		scale = 1
	}
	return &Distribution{name: name, scale: scale}
}

// Observe records one value. Negative values clamp to zero.
func (d *Distribution) Observe(v int64) {
	if d == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	d.bin[distIndex(v)].Add(1)
	d.count.Add(1)
	d.sum.Add(v)
}

// Count returns how many values have been observed.
func (d *Distribution) Count() int64 {
	if d == nil {
		return 0
	}
	return d.count.Load()
}

// Sum returns the total of all observed values (pre-scale units).
func (d *Distribution) Sum() int64 {
	if d == nil {
		return 0
	}
	return d.sum.Load()
}

// Histogram builds an equi-depth histogram over the recorded bins using the
// hist package — the same construction the accelerator's Histogram module
// runs over the Binner's region. Returns nil when nothing was observed.
// Under concurrent Observes the view is a consistent-enough snapshot for
// monitoring: each bin is read once, atomically.
func (d *Distribution) Histogram() *hist.Histogram {
	if d == nil {
		return nil
	}
	var counts [distNumBins]int64
	d.CountsInto(counts[:])
	return CountsHistogram(counts[:])
}

// CountsHistogram builds the equi-depth histogram Quantile and the /metrics
// quantiles read, over per-bin counts laid out as CountsInto fills them —
// how the timeline summarises one window's count deltas the same way the
// live distribution is summarised. Returns nil when every count is zero.
func CountsHistogram(counts []int64) *hist.Histogram {
	nz := make([]bins.Bin, 0, 64)
	for i, n := range counts {
		if n > 0 {
			nz = append(nz, bins.Bin{Value: distLow(i), Count: n})
		}
	}
	if len(nz) == 0 {
		return nil
	}
	return hist.BuildEquiDepthFromBins(nz, distQuantileBuckets)
}

// Quantile returns the approximate value (pre-scale units) at q ∈ [0,1], or
// 0 when nothing was observed yet.
func (d *Distribution) Quantile(q float64) int64 {
	h := d.Histogram()
	if h == nil {
		return 0
	}
	v, err := h.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// DistNumBins is the fixed bin count of every Distribution: the size of the
// counts slice CountsInto fills and CountsHistogram reads.
const DistNumBins = distNumBins

// CountsInto copies the distribution's raw per-bin counters into buf, which
// must have length DistNumBins, and returns the observation count and sum at
// the same moment (each bin read once, atomically — the usual
// consistent-enough monitoring snapshot). Nil receivers zero the buffer.
func (d *Distribution) CountsInto(buf []int64) (count, sum int64) {
	if d == nil {
		for i := range buf {
			buf[i] = 0
		}
		return 0, 0
	}
	for i := 0; i < distNumBins && i < len(buf); i++ {
		buf[i] = d.bin[i].Load()
	}
	return d.count.Load(), d.sum.Load()
}

// Scale returns the exposition multiplier the distribution was registered
// with (e.g. 1e-9 for observe-nanoseconds-expose-seconds).
func (d *Distribution) Scale() float64 {
	if d == nil || d.scale == 0 {
		return 1
	}
	return d.scale
}

// distQuantileBuckets is the equi-depth resolution used for scrape-time
// quantiles; 64 buckets bounds per-bucket mass at ~1.6% of observations.
const distQuantileBuckets = 64

// distQuantiles are the quantiles every distribution exposes on /metrics.
var distQuantiles = []float64{0.5, 0.9, 0.99}
