package timeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

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

// defaultResolutions is the stock three-tier retention: two minutes at 1s,
// an hour at 10s, a day at 5m. The finest tier's step is the sampling
// period, and every coarser step is a multiple of it.
func defaultResolutions() []Res {
	return []Res{
		{Step: time.Second, Len: 120},
		{Step: 10 * time.Second, Len: 360},
		{Step: 5 * time.Minute, Len: 288},
	}
}

const (
	// defaultMaxSeries caps the instrument population; instruments
	// registered after the cap is hit are counted but not tracked (fixed
	// memory beats completeness for a flight recorder).
	defaultMaxSeries = 512
	// defaultBundleLimit caps how many debug bundles are kept (oldest pruned).
	defaultBundleLimit = 16
	// defaultCooldown debounces each detector: once tripped, it stays quiet
	// this long.
	defaultCooldown    = time.Minute
	defaultAnomalyRing = 64
)

// Synthetic series names the timeline derives from the tracer's
// distinct-entity sketches rather than from a registry instrument.
const (
	MetricDistinctTables  = "timeline_distinct_tables"
	MetricDistinctClients = "timeline_distinct_clients"
)

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
// whose size depends on the series kind — a float for counters/gauges,
// per-bin counts for distributions, an HLL for the distinct-entity series.
type resRing struct {
	stepTicks int // window length in base windows (1 for the base tier)
	ring      obs.Ring[window]

	acc      float64
	accBins  []int64 // dist only: per-bin count deltas, the Distribution's layout
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
	o         *obs.Obs
	bundleDir string
	res       []Res // finest first; res[0].Step is the sampling period

	maxSeries   int
	bundleLimit int
	cooldown    time.Duration

	mu      sync.Mutex
	series  map[string]*series
	order   []*series
	ticks   uint64
	dropped int // instruments beyond maxSeries

	sampleBuf []obs.Sample
	distBuf   []int64

	eng *engine

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds the timeline over a bundle: it samples o's registry, drains the
// distinct-entity sketches of o's tracer, dumps the tracer's tail ring and
// o's hardware profile into debug bundles, and logs through o's logger. A
// non-empty bundleDir is where anomaly trips drop debug bundles.
func New(o *obs.Obs, bundleDir string) *Timeline {
	return newTimeline(o, bundleDir, defaultResolutions(), DefaultDetectors())
}

func newTimeline(o *obs.Obs, bundleDir string, res []Res, dets []Detector) *Timeline {
	t := &Timeline{
		o:           o,
		bundleDir:   bundleDir,
		res:         res,
		maxSeries:   defaultMaxSeries,
		bundleLimit: defaultBundleLimit,
		cooldown:    defaultCooldown,
		series:      make(map[string]*series),
		distBuf:     make([]int64, obs.DistNumBins),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
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
	return t.res[0].Step
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
			tick := time.NewTicker(t.Base())
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
// sight. Caller holds t.mu (or is inside newTimeline, before publication).
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
		s.rings[i] = resRing{stepTicks: int(r.Step / t.res[0].Step), ring: obs.NewRing[window](r.Len)}
		if kind == kindDist {
			s.rings[i].accBins = make([]int64, obs.DistNumBins)
		}
	}
	t.series[name] = s
	t.order = append(t.order, s)
	return s
}

// Tick performs one sampling pass as of now: read every instrument, fold the
// deltas into open base windows, drain the tracer's distinct-entity sketches
// into them, seal the base windows (and any coarser window whose boundary
// this is), and run the anomaly detectors over the freshly sealed windows.
// Exported so tests (and the chaos CI job) can drive time deterministically;
// production use goes through Start. Nil-safe.
func (t *Timeline) Tick(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks++

	t.sampleBuf = t.o.Registry().Samples(t.sampleBuf[:0])
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
		case obs.SampleDist:
			s := t.getOrCreate(smp.Name, kindDist, smp.Dist.Scale())
			if s == nil {
				continue
			}
			t.tickDist(s, smp.Dist)
		}
	}

	tables, clients := t.o.Tracer().DrainEntities()
	t.series[MetricDistinctTables].rings[0].accHLL = tables
	t.series[MetricDistinctClients].rings[0].accHLL = clients

	// Seal the base windows, folding each into the coarser open windows;
	// seal those at their own boundaries.
	endMS := now.UnixMilli()
	for _, s := range t.order {
		t.sealSeries(s, endMS)
	}
	t.eng.evaluate(now)
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
	rr := &s.rings[0]
	for i, cur := range t.distBuf {
		if dd := cur - s.prevBins[i]; dd > 0 {
			rr.accBins[i] += dd
		}
		s.prevBins[i] = cur
	}
	rr.accCount += max(count-s.prevCount, 0)
	rr.accSum += max(sum-s.prevSum, 0)
	s.prevCount, s.prevSum = count, sum
}

// sealSeries closes the base window for s, folds it into coarser open
// windows, and closes any coarser window whose boundary this base seal is.
// Caller holds t.mu.
func (t *Timeline) sealSeries(s *series, endMS int64) {
	base := &s.rings[0]
	base.ring.Push(closeOpen(s, base, endMS))
	for i := 1; i < len(s.rings); i++ {
		rr := &s.rings[i]
		foldBase(s, rr, base)
		if t.ticks%uint64(rr.stepTicks) == 0 {
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
	case kindCounter, kindGauge:
		w.val = rr.acc // a gauge's last reading persists across quiet windows
	case kindDist:
		w.val = float64(rr.accCount)
		w.sum = float64(rr.accSum) * s.scale
		if h := obs.CountsHistogram(rr.accBins); h != nil {
			q := func(p float64) float64 {
				v, _ := h.Quantile(p) // p is a constant in [0, 1]: cannot fail
				return float64(v) * s.scale
			}
			w.p50, w.p90, w.p99 = q(0.5), q(0.9), q(0.99)
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
	case kindDist:
		clear(rr.accBins)
		rr.accCount, rr.accSum = 0, 0
	case kindEntity:
		rr.accHLL = nil
	}
}

// foldBase merges the base tier's open window, just sealed, into a coarser
// tier's open window: counters add deltas, gauges take the latest reading,
// distributions add per-bin counts, entity sketches merge HLL registers.
func foldBase(s *series, rr, base *resRing) {
	switch s.kind {
	case kindCounter:
		rr.acc += base.acc
	case kindGauge:
		rr.acc = base.acc
	case kindDist:
		for i, n := range base.accBins {
			rr.accBins[i] += n
		}
		rr.accCount += base.accCount
		rr.accSum += base.accSum
	case kindEntity:
		if base.accHLL != nil {
			if rr.accHLL == nil {
				rr.accHLL = sketch.NewHLL(obs.EntityPrecision)
			}
			rr.accHLL.Merge(base.accHLL)
		}
	}
}

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

// sumWindows sums up to n sealed base-window values of metric, oldest first,
// leaving out the skip newest windows, and reports how many it summed.
// Caller holds t.mu. Used by the anomaly detectors.
func (t *Timeline) sumWindows(metric string, skip, n int) (sum float64, found int) {
	s, ok := t.series[metric]
	if !ok {
		return 0, 0
	}
	ring := &s.rings[0].ring
	end := ring.Len() - skip
	for i := max(end-n, 0); i < end; i++ {
		sum += ring.At(i).val
		found++
	}
	return sum, found
}
