package timeline

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/hist"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/sketch"
)

// Res is one retention tier of the timeline: windows of Step duration, Len of
// them retained in a ring. Coarser tiers are built by merging sealed base
// windows, so every Step must be a multiple of the base resolution's Step.
type Res struct {
	Step time.Duration
	Len  int
}

// Label is the resolution's query name ("1s", "10s", "5m") — the value the
// /timeline?res= parameter matches against.
func (r Res) Label() string { return fmtStep(r.Step) }

func fmtStep(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	case d >= time.Second && d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	default:
		return fmt.Sprintf("%dms", d/time.Millisecond)
	}
}

// DefaultResolutions is the stock three-tier retention: two minutes at 1s,
// an hour at 10s, a day at 5m.
func DefaultResolutions() []Res {
	return []Res{
		{Step: time.Second, Len: 120},
		{Step: 10 * time.Second, Len: 360},
		{Step: 5 * time.Minute, Len: 288},
	}
}

// ParseResolutions parses the histserved flag syntax "1s:120,10s:360,5m:288"
// into a resolution list.
func ParseResolutions(s string) ([]Res, error) {
	var out []Res
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		stepStr, lenStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("timeline: resolution %q: want step:len", part)
		}
		step, err := time.ParseDuration(stepStr)
		if err != nil {
			return nil, fmt.Errorf("timeline: resolution %q: %v", part, err)
		}
		var n int
		if _, err := fmt.Sscanf(lenStr, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("timeline: resolution %q: bad length", part)
		}
		out = append(out, Res{Step: step, Len: n})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("timeline: no resolutions in %q", s)
	}
	return out, nil
}

// Defaults for Config fields left zero.
const (
	DefaultBase        = time.Second
	DefaultMaxSeries   = 512
	DefaultHLLPrec     = 10
	DefaultBundleLimit = 16
	DefaultCooldown    = time.Minute
	defaultAnomalyRing = 64
)

// Synthetic series names the timeline derives from the flight recorder's
// entity stream rather than from a registry instrument.
const (
	MetricDistinctTables  = "timeline_distinct_tables"
	MetricDistinctClients = "timeline_distinct_clients"
)

// Config wires a Timeline. Zero-value fields take the defaults above;
// Registry is the only field without which the timeline is pointless
// (it still runs, recording only the synthetic distinct-entity series).
type Config struct {
	// Base is the sampling period; every instrument is read once per Base.
	Base time.Duration
	// Resolutions are the retention tiers, finest first. Steps are rounded up
	// to multiples of the base step so window boundaries align with ticks.
	Resolutions []Res
	// MaxSeries caps the instrument population; instruments registered after
	// the cap is hit are counted but not tracked (fixed memory beats
	// completeness for a flight recorder).
	MaxSeries int
	// HLLPrecision is the register-count exponent for the per-window
	// distinct-entity sketches.
	HLLPrecision int

	Registry *obs.Registry
	Flight   *obs.FlightRecorder
	Prof     *hwprof.Profiler
	Log      *slog.Logger
	// Tracer, when set alongside Registry, joins metric exemplars to their
	// distributed traces in debug bundles: each anomaly bundle gains an
	// exemplars.json mapping every distribution's retained exemplar to the
	// assembled trace it points at (when the tracer still holds it).
	Tracer *obs.Tracer

	// Detectors override DefaultDetectors; nil keeps the stock set, an empty
	// non-nil slice disables detection.
	Detectors []Detector
	// BundleDir, when set, is where anomaly trips drop debug bundles.
	BundleDir string
	// BundleLimit caps how many bundles are kept (oldest pruned).
	BundleLimit int
	// Cooldown debounces each detector: once tripped, it stays quiet this long.
	Cooldown time.Duration
}

// seriesKind discriminates how a tracked series turns samples into windows.
type seriesKind uint8

const (
	kindCounter seriesKind = iota
	kindGauge
	kindDist
	kindEntity
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindDist:
		return "distribution"
	case kindEntity:
		return "distinct"
	default:
		return "untyped"
	}
}

// window is one sealed ring slot. Only distributions use the quantile
// fields; keeping them inline (vs. a side table) trades 32 bytes per slot
// for branch-free sealing.
type window struct {
	endMS int64
	val   float64 // counter: window delta; gauge: last reading; dist: count delta; entity: distinct estimate
	sum   float64 // dist only: scaled sum delta
	p50   float64
	p90   float64
	p99   float64
}

// resRing is one series × one resolution: a fixed ring of sealed windows
// plus the open window's accumulator. Open-window state is the only part
// whose size depends on the series kind — a float for counters/gauges, a
// bins.Vector for distributions, an HLL for the distinct-entity series.
type resRing struct {
	stepTicks int // window length in base windows (1 for the base tier)
	ring      obs.Ring[window]

	acc      float64
	accSet   bool // gauge: a reading landed in this window
	accVec   *bins.Vector
	accCount int64
	accSum   int64
	accHLL   *sketch.HLL
}

// series is one tracked metric across all resolutions.
type series struct {
	name string
	kind seriesKind

	// Delta state for counters and distributions: the previous cumulative
	// reading. primed distinguishes "never seen" from "previous was zero" so
	// an instrument discovered mid-flight doesn't book its lifetime total as
	// one burst.
	primed    bool
	prev      float64
	prevBins  []int64
	prevCount int64
	prevSum   int64
	scale     float64

	rings []resRing
}

// Timeline is the multi-resolution metrics history ring. One mutex guards
// everything: sampling happens once per base period off the hot path, and
// readers copy out; instruments themselves stay lock-free. A nil *Timeline
// no-ops on every method.
type Timeline struct {
	cfg       Config
	base      time.Duration
	baseTicks int // base-tier window length in sampling ticks
	res       []Res
	maxSeries int

	mu       sync.Mutex
	series   map[string]*series
	order    []*series
	ticks    uint64
	dropped  int // instruments beyond MaxSeries
	flightAt uint64

	sampleBuf []obs.Sample
	distBuf   []int64
	deltaVec  *bins.Vector

	eng *engine

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Timeline from cfg, normalising zero fields to defaults and
// rounding resolution steps up to multiples of the base period so every
// window boundary lands on a tick.
func New(cfg Config) *Timeline {
	if cfg.Base <= 0 {
		cfg.Base = DefaultBase
	}
	res := cfg.Resolutions
	if len(res) == 0 {
		res = DefaultResolutions()
	}
	norm := make([]Res, 0, len(res))
	for _, r := range res {
		if r.Len <= 0 {
			continue
		}
		if r.Step < cfg.Base {
			r.Step = cfg.Base
		}
		if rem := r.Step % cfg.Base; rem != 0 {
			r.Step += cfg.Base - rem
		}
		norm = append(norm, r)
	}
	if len(norm) == 0 {
		norm = []Res{{Step: cfg.Base, Len: 120}}
	}
	sort.SliceStable(norm, func(i, j int) bool { return norm[i].Step < norm[j].Step })
	// Coarser tiers fold sealed base windows, so they must tile base windows.
	for i := 1; i < len(norm); i++ {
		if rem := norm[i].Step % norm[0].Step; rem != 0 {
			norm[i].Step += norm[0].Step - rem
		}
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = DefaultMaxSeries
	}
	if cfg.HLLPrecision <= 0 {
		cfg.HLLPrecision = DefaultHLLPrec
	}
	if cfg.BundleLimit <= 0 {
		cfg.BundleLimit = DefaultBundleLimit
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	baseTicks := int(norm[0].Step / cfg.Base)
	if baseTicks < 1 {
		baseTicks = 1
	}
	t := &Timeline{
		cfg:       cfg,
		base:      cfg.Base,
		baseTicks: baseTicks,
		res:       norm,
		maxSeries: cfg.MaxSeries,
		series:    make(map[string]*series),
		distBuf:   make([]int64, obs.DistNumBins),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	dets := cfg.Detectors
	if dets == nil {
		dets = DefaultDetectors()
	}
	t.eng = newEngine(t, dets)
	// The entity series exist from the start so /timeline lists them even
	// before the first scan.
	t.getOrCreate(MetricDistinctTables, kindEntity, 1)
	t.getOrCreate(MetricDistinctClients, kindEntity, 1)
	return t
}

// Base returns the sampling period (the base tier's window length).
func (t *Timeline) Base() time.Duration {
	if t == nil {
		return 0
	}
	return t.base
}

// Start launches the sampling goroutine, ticking every base period. Safe to
// call once; Close stops it. Nil-safe.
func (t *Timeline) Start() {
	if t == nil {
		return
	}
	t.startOnce.Do(func() {
		go func() {
			defer close(t.done)
			tick := time.NewTicker(t.base)
			defer tick.Stop()
			for {
				select {
				case now := <-tick.C:
					t.Tick(now)
				case <-t.stop:
					return
				}
			}
		}()
	})
}

// Close stops the sampling goroutine and waits for it to exit. Nil-safe,
// idempotent, and valid even if Start was never called.
func (t *Timeline) Close() {
	if t == nil {
		return
	}
	t.stopOnce.Do(func() { close(t.stop) })
	t.startOnce.Do(func() { close(t.done) }) // never started: unblock the wait
	<-t.done
}

// getOrCreate returns the tracked series for name, creating rings on first
// sight. Caller holds t.mu (or is inside New, before publication).
func (t *Timeline) getOrCreate(name string, kind seriesKind, scale float64) *series {
	if s, ok := t.series[name]; ok {
		return s
	}
	if len(t.order) >= t.maxSeries {
		t.dropped++
		return nil
	}
	s := &series{name: name, kind: kind, scale: scale, rings: make([]resRing, len(t.res))}
	if kind == kindDist {
		s.prevBins = make([]int64, obs.DistNumBins)
	}
	for i, r := range t.res {
		st := t.baseTicks
		if i > 0 {
			st = int(r.Step / t.res[0].Step)
		}
		s.rings[i] = resRing{stepTicks: st, ring: obs.NewRing[window](r.Len)}
	}
	t.series[name] = s
	t.order = append(t.order, s)
	return s
}

// Tick performs one sampling pass as of now: read every instrument, fold the
// deltas into open base windows, seal windows whose boundary this tick is,
// drain the flight recorder into the distinct-entity sketches, and run the
// anomaly detectors over freshly sealed base windows. Exported so tests (and
// the chaos CI job) can drive time deterministically; production use goes
// through Start. Nil-safe.
func (t *Timeline) Tick(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks++

	t.sampleBuf = t.cfg.Registry.Samples(t.sampleBuf[:0])
	for i := range t.sampleBuf {
		smp := &t.sampleBuf[i]
		switch smp.Kind {
		case obs.SampleCounter:
			s := t.getOrCreate(smp.Name, kindCounter, 1)
			if s == nil {
				continue
			}
			d := smp.Value - s.prev
			if !s.primed || d < 0 {
				// First sight or counter reset: don't book history as a burst.
				d = 0
			}
			s.primed = true
			s.prev = smp.Value
			s.rings[0].acc += d
		case obs.SampleGauge:
			s := t.getOrCreate(smp.Name, kindGauge, 1)
			if s == nil {
				continue
			}
			s.rings[0].acc = smp.Value
			s.rings[0].accSet = true
		case obs.SampleDist:
			s := t.getOrCreate(smp.Name, kindDist, smp.Dist.Scale())
			if s == nil {
				continue
			}
			t.tickDist(s, smp.Dist)
		}
	}

	t.tickEntities()

	// Seal base windows at base boundaries, folding each sealed window into
	// the coarser open windows; seal those at their own boundaries.
	if t.ticks%uint64(t.baseTicks) == 0 {
		endMS := now.UnixMilli()
		for _, s := range t.order {
			t.sealSeries(s, endMS)
		}
		t.eng.evaluate(now)
	}
}

// tickDist folds one distribution's per-bin deltas since the last tick into
// the series' open base window.
func (t *Timeline) tickDist(s *series, d *obs.Distribution) {
	count, sum := d.CountsInto(t.distBuf)
	if !s.primed {
		copy(s.prevBins, t.distBuf)
		s.prevCount, s.prevSum = count, sum
		s.primed = true
		return
	}
	if t.deltaVec == nil {
		t.deltaVec = bins.FromCounts(0, 1, make([]int64, obs.DistNumBins))
	}
	t.deltaVec.Reset()
	dirty := false
	for i, cur := range t.distBuf {
		if dd := cur - s.prevBins[i]; dd > 0 {
			t.deltaVec.AddCount(int64(i), dd)
			dirty = true
		}
		s.prevBins[i] = cur
	}
	dc, ds := count-s.prevCount, sum-s.prevSum
	s.prevCount, s.prevSum = count, sum
	if dc < 0 {
		dc = 0
	}
	if ds < 0 {
		ds = 0
	}
	if !dirty && dc == 0 {
		return
	}
	rr := &s.rings[0]
	if rr.accVec == nil {
		rr.accVec = bins.FromCounts(0, 1, make([]int64, obs.DistNumBins))
	}
	rr.accVec.Merge(t.deltaVec)
	rr.accCount += dc
	rr.accSum += ds
}

// tickEntities drains new flight-recorder entities into the open
// distinct-table/client sketches on the base tier.
func (t *Timeline) tickEntities() {
	tables, clients, last := t.cfg.Flight.EntitiesSince(t.flightAt)
	t.flightAt = last
	if len(tables) == 0 && len(clients) == 0 {
		return
	}
	push := func(name string, vals []string) {
		s := t.series[name]
		if s == nil || len(vals) == 0 {
			return
		}
		rr := &s.rings[0]
		if rr.accHLL == nil {
			rr.accHLL = sketch.NewHLL(t.cfg.HLLPrecision)
		}
		for _, v := range vals {
			rr.accHLL.Push(0, hashString(v))
		}
	}
	push(MetricDistinctTables, tables)
	push(MetricDistinctClients, clients)
}

func hashString(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return int64(h.Sum64())
}

// sealSeries closes the base window for s, folds it into coarser open
// windows, and closes any coarser window whose boundary this base seal is.
// Caller holds t.mu.
func (t *Timeline) sealSeries(s *series, endMS int64) {
	baseSealed := t.ticks / uint64(t.baseTicks)
	base := &s.rings[0]
	w := closeOpen(s, base, endMS)
	base.ring.Push(w)

	for i := 1; i < len(s.rings); i++ {
		rr := &s.rings[i]
		t.foldBase(s, rr, base, w)
		if baseSealed%uint64(rr.stepTicks) == 0 {
			rr.ring.Push(closeOpen(s, rr, endMS))
			resetOpen(s, rr)
		}
	}
	resetOpen(s, base)
}

// closeOpen materialises rr's open accumulator into a sealed window value;
// it does not reset (the base tier is folded into coarser tiers first).
func closeOpen(s *series, rr *resRing, endMS int64) window {
	w := window{endMS: endMS}
	switch s.kind {
	case kindCounter:
		w.val = rr.acc
	case kindGauge:
		w.val = rr.acc // last reading persists across quiet windows
	case kindDist:
		w.val = float64(rr.accCount)
		w.sum = float64(rr.accSum) * s.scale
		if rr.accVec != nil && rr.accCount > 0 {
			w.p50, w.p90, w.p99 = distQuantiles(rr.accVec, s.scale)
		}
	case kindEntity:
		if rr.accHLL != nil {
			w.val = rr.accHLL.Estimate()
		}
	}
	return w
}

// resetOpen clears rr's open-window accumulator for the next window.
// Gauges keep their last reading so quiet windows repeat it rather than
// dropping to zero.
func resetOpen(s *series, rr *resRing) {
	switch s.kind {
	case kindCounter:
		rr.acc = 0
	case kindGauge:
		rr.accSet = false
	case kindDist:
		if rr.accVec != nil {
			rr.accVec.Reset()
		}
		rr.accCount, rr.accSum = 0, 0
	case kindEntity:
		rr.accHLL = nil
	}
}

// foldBase merges a sealed base window into a coarser tier's open window:
// counters add deltas, gauges take the latest reading, distributions merge
// bin vectors via bins.MergeAll, entity sketches merge HLL registers.
func (t *Timeline) foldBase(s *series, rr, baseRing *resRing, w window) {
	switch s.kind {
	case kindCounter:
		rr.acc += w.val
	case kindGauge:
		rr.acc = w.val
		rr.accSet = true
	case kindDist:
		if baseRing.accVec != nil && baseRing.accCount > 0 {
			if rr.accVec == nil {
				rr.accVec = baseRing.accVec.Clone()
			} else if merged, err := bins.MergeAll(rr.accVec, baseRing.accVec); err == nil {
				rr.accVec = merged
			}
			rr.accCount += baseRing.accCount
			rr.accSum += baseRing.accSum
		}
	case kindEntity:
		if baseRing.accHLL != nil {
			if rr.accHLL == nil {
				rr.accHLL = sketch.NewHLL(t.cfg.HLLPrecision)
			}
			rr.accHLL.Merge(baseRing.accHLL)
		}
	}
}

// distQuantiles reconstructs p50/p90/p99 from a window's bin-delta vector by
// mapping bin indices back to their representative values and running the
// repo's equi-depth builder over them.
func distQuantiles(v *bins.Vector, scale float64) (p50, p90, p99 float64) {
	nz := v.NonZero()
	if len(nz) == 0 {
		return 0, 0, 0
	}
	for i := range nz {
		nz[i].Value = obs.DistBinLow(int(nz[i].Value))
	}
	h := hist.BuildEquiDepthFromBins(nz, distWindowBuckets)
	if h == nil {
		return 0, 0, 0
	}
	q := func(p float64) float64 {
		val, err := h.Quantile(p)
		if err != nil {
			return 0
		}
		return float64(val) * scale
	}
	return q(0.5), q(0.9), q(0.99)
}

// distWindowBuckets is the equi-depth resolution for per-window quantiles;
// windows hold far fewer observations than a lifetime distribution, so 32
// buckets is plenty.
const distWindowBuckets = 32

// Point is one sealed window as served by /timeline.
type Point struct {
	// T is the window's end time, unix milliseconds.
	T int64   `json:"t_ms"`
	V float64 `json:"v"`
	// Distribution windows also carry the window's scaled sum and quantiles
	// (V is the observation count in the window).
	Sum float64 `json:"sum,omitempty"`
	P50 float64 `json:"p50,omitempty"`
	P90 float64 `json:"p90,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// SeriesData is one metric at one resolution: the sealed windows, oldest
// first, plus enough metadata to interpret them.
type SeriesData struct {
	Metric string  `json:"metric"`
	Kind   string  `json:"kind"`
	Res    string  `json:"res"`
	StepMS int64   `json:"step_ms"`
	Points []Point `json:"points"`
}

// Series returns the sealed windows of metric at the resolution labelled res
// ("" means the base tier), oldest first, or ok=false when the metric or
// resolution is unknown. Nil-safe.
func (t *Timeline) Series(metric, res string) (SeriesData, bool) {
	if t == nil {
		return SeriesData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seriesLocked(metric, res)
}

func (t *Timeline) seriesLocked(metric, res string) (SeriesData, bool) {
	s, ok := t.series[metric]
	if !ok {
		return SeriesData{}, false
	}
	ri := 0
	if res != "" {
		ri = -1
		for i, r := range t.res {
			if r.Label() == res {
				ri = i
				break
			}
		}
		if ri < 0 {
			return SeriesData{}, false
		}
	}
	ring := &s.rings[ri].ring
	out := SeriesData{
		Metric: s.name,
		Kind:   s.kind.String(),
		Res:    t.res[ri].Label(),
		StepMS: t.res[ri].Step.Milliseconds(),
		Points: make([]Point, 0, ring.Len()),
	}
	for i := 0; i < ring.Len(); i++ {
		w := ring.At(i)
		out.Points = append(out.Points, Point{T: w.endMS, V: w.val, Sum: w.sum, P50: w.p50, P90: w.p90, P99: w.p99})
	}
	return out, true
}

// Metrics returns the tracked metric names, sorted. Nil-safe.
func (t *Timeline) Metrics() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.order))
	for _, s := range t.order {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

// Resolutions returns the tier labels, finest first. Nil-safe.
func (t *Timeline) Resolutions() []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t.res))
	for i, r := range t.res {
		out[i] = r.Label()
	}
	return out
}

// Dropped reports how many instruments were seen beyond the MaxSeries cap.
func (t *Timeline) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// lastVals returns up to n most recent sealed base-window values of metric,
// oldest first. Caller holds t.mu. Used by the anomaly detectors.
func (t *Timeline) lastVals(metric string, n int) []float64 {
	s, ok := t.series[metric]
	if !ok || n <= 0 {
		return nil
	}
	ring := &s.rings[0].ring
	out := make([]float64, min(n, ring.Len()))
	for i := range out {
		out[i] = ring.At(ring.Len() - len(out) + i).val
	}
	return out
}
