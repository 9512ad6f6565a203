package timeline

import (
	"fmt"
	"time"

	"streamhist/internal/obs"
)

// DetectorKind selects a detector's evaluation rule.
type DetectorKind uint8

const (
	// KindDrop trips when the mean of the last Window base windows falls
	// below Threshold × the mean of the Trailing windows before them — the
	// burn-rate shape: a short window compared against a long baseline.
	// MinActivity gates it so an idle system never "drops".
	KindDrop DetectorKind = iota
	// KindRatio trips when sum(Metric deltas)/sum(Denom deltas) over the last
	// Window base windows exceeds Threshold (denominator must be positive).
	KindRatio
	// KindNonZero trips when the last Window base windows contain any
	// activity at all on Metric — for counters whose every increment is bad
	// news (WAL drops).
	KindNonZero
	// KindNotEquals trips when Metric's latest sealed gauge reading differs
	// from Want — for invariant gauges like hwprof consistency.
	KindNotEquals
	// KindAbove trips when Metric's latest sealed gauge reading exceeds
	// Threshold — for age/backlog gauges.
	KindAbove
)

func (k DetectorKind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindRatio:
		return "ratio"
	case KindNonZero:
		return "nonzero"
	case KindNotEquals:
		return "notequals"
	case KindAbove:
		return "above"
	default:
		return "unknown"
	}
}

// Detector is one anomaly rule evaluated over the timeline's base tier after
// every sealed window.
type Detector struct {
	Name   string
	Kind   DetectorKind
	Metric string
	// Denom is the denominator metric for KindRatio.
	Denom string
	// Window is how many recent base windows the rule looks at (default 1).
	Window int
	// Trailing is the baseline length for KindDrop (default 6×Window).
	Trailing int
	// Threshold is the trip level: the drop fraction for KindDrop, the ratio
	// for KindRatio, the gauge level for KindAbove.
	Threshold float64
	// Want is the required value for KindNotEquals.
	Want float64
	// MinActivity gates KindDrop: the trailing mean must be at least this
	// large for a drop to be meaningful.
	MinActivity float64
}

// DefaultDetectors is the stock rule set, covering the failure modes the
// rest of the repo can produce: throughput collapse, fault-path pressure,
// accelerator-model drift, and durability backlog.
func DefaultDetectors() []Detector {
	return []Detector{
		{
			Name: "throughput-drop", Kind: KindDrop,
			Metric: "streamhist_server_bytes_moved_total",
			Window: 5, Trailing: 30, Threshold: 0.3, MinActivity: 4096,
		},
		{
			Name: "quarantine-ratio", Kind: KindRatio,
			Metric: "streamhist_server_pages_quarantined_total",
			Denom:  "streamhist_server_pages_moved_total",
			Window: 10, Threshold: 0.05,
		},
		{
			Name: "degraded-ratio", Kind: KindRatio,
			Metric: "streamhist_server_scans_degraded_total",
			Denom:  "streamhist_server_scans_served_total",
			Window: 10, Threshold: 0.5,
		},
		{
			Name: "hwprof-consistency", Kind: KindNotEquals,
			Metric: "streamhist_hwprof_consistency", Want: 1,
		},
		{
			Name: "wal-drops", Kind: KindNonZero,
			Metric: "streamhist_durable_wal_dropped_total", Window: 1,
		},
		{
			Name: "checkpoint-age", Kind: KindAbove,
			Metric:    "streamhist_durable_checkpoint_age_seconds",
			Threshold: 300,
		},
	}
}

// Anomaly is one detector trip: the verdict served by /anomalies, decorated
// onto /healthz, and written at the head of a debug bundle.
type Anomaly struct {
	TimeMS    int64   `json:"t_ms"`
	Detector  string  `json:"detector"`
	Kind      string  `json:"kind"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
	// Bundle is the debug-bundle directory this trip produced, if any.
	Bundle string `json:"bundle,omitempty"`
}

// engine evaluates detectors after every sealed base window, debounces trips
// per detector, keeps a bounded anomaly ring, counts trips in the registry,
// and triggers debug bundles. It runs under the timeline's mutex.
type engine struct {
	t    *Timeline
	dets []Detector

	lastTrip map[string]time.Time
	ring     obs.Ring[Anomaly]
	trips    uint64

	counters  map[string]*obs.Counter
	bundleSeq uint64
}

func newEngine(t *Timeline, dets []Detector) *engine {
	e := &engine{
		t:        t,
		dets:     make([]Detector, 0, len(dets)),
		lastTrip: make(map[string]time.Time, len(dets)),
		ring:     obs.NewRing[Anomaly](defaultAnomalyRing),
		counters: make(map[string]*obs.Counter, len(dets)),
	}
	for _, d := range dets {
		if d.Window <= 0 {
			d.Window = 1
		}
		if d.Kind == KindDrop && d.Trailing <= 0 {
			d.Trailing = 6 * d.Window
		}
		e.dets = append(e.dets, d)
		e.counters[d.Name] = t.o.Registry().Counter(
			fmt.Sprintf(`streamhist_anomaly_trips_total{detector="%s"}`, obs.LabelValue(d.Name)),
			"Anomaly detector trips.")
	}
	return e
}

// evaluate runs every detector against the freshly sealed base windows.
// Caller holds t.mu.
func (e *engine) evaluate(now time.Time) {
	for i := range e.dets {
		d := &e.dets[i]
		if last, ok := e.lastTrip[d.Name]; ok && now.Sub(last) < e.t.cooldown {
			continue
		}
		a, tripped := e.check(d)
		if !tripped {
			continue
		}
		a.TimeMS = now.UnixMilli()
		e.lastTrip[d.Name] = now
		e.trips++
		e.counters[d.Name].Inc()
		e.t.writeBundleLocked(&a, now)
		e.ring.Push(a)
		e.t.o.Logger().Warn("anomaly detected",
			"detector", a.Detector, "metric", a.Metric,
			"value", a.Value, "threshold", a.Threshold, "bundle", a.Bundle)
	}
}

func (e *engine) check(d *Detector) (Anomaly, bool) {
	a := Anomaly{Detector: d.Name, Kind: d.Kind.String(), Metric: d.Metric, Threshold: d.Threshold}
	switch d.Kind {
	case KindDrop:
		vals := e.t.lastVals(d.Metric, d.Window+d.Trailing)
		if len(vals) < d.Window+d.Trailing {
			return a, false // not enough history for a baseline yet
		}
		trailing := mean(vals[:d.Trailing])
		recent := mean(vals[d.Trailing:])
		if trailing < d.MinActivity {
			return a, false
		}
		if recent >= d.Threshold*trailing {
			return a, false
		}
		a.Value = recent / trailing
		a.Message = fmt.Sprintf("%s: recent mean %.1f is %.0f%% of trailing mean %.1f (trip below %.0f%%)",
			d.Metric, recent, 100*a.Value, trailing, 100*d.Threshold)
		return a, true
	case KindRatio:
		num := sum(e.t.lastVals(d.Metric, d.Window))
		den := sum(e.t.lastVals(d.Denom, d.Window))
		if den <= 0 {
			return a, false
		}
		ratio := num / den
		if ratio <= d.Threshold {
			return a, false
		}
		a.Value = ratio
		a.Message = fmt.Sprintf("%s/%s = %.3f over last %d windows (trip above %.3f)",
			d.Metric, d.Denom, ratio, d.Window, d.Threshold)
		return a, true
	case KindNonZero:
		v := sum(e.t.lastVals(d.Metric, d.Window))
		if v <= 0 {
			return a, false
		}
		a.Value = v
		a.Message = fmt.Sprintf("%s: %.0f in last %d windows (any is a trip)", d.Metric, v, d.Window)
		return a, true
	case KindNotEquals:
		vals := e.t.lastVals(d.Metric, 1)
		if len(vals) == 0 || vals[0] == d.Want {
			return a, false
		}
		a.Value = vals[0]
		a.Threshold = d.Want
		a.Message = fmt.Sprintf("%s = %g, want %g", d.Metric, vals[0], d.Want)
		return a, true
	case KindAbove:
		vals := e.t.lastVals(d.Metric, 1)
		if len(vals) == 0 || vals[0] <= d.Threshold {
			return a, false
		}
		a.Value = vals[0]
		a.Message = fmt.Sprintf("%s = %g (trip above %g)", d.Metric, vals[0], d.Threshold)
		return a, true
	}
	return a, false
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// Anomalies returns up to n recorded trips, newest first. Nil-safe.
func (t *Timeline) Anomalies(n int) []Anomaly {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eng.ring.Newest(n)
}

// Trips returns the total number of detector trips. Nil-safe.
func (t *Timeline) Trips() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eng.trips
}
