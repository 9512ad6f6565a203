package timeline

import (
	"fmt"
	"time"

	"streamhist/internal/obs"
)

// Detector is one anomaly rule evaluated over the timeline's base tier after
// every sealed window. Every detector is the same rule: sum Metric over the
// last Window base windows; divide the sum by the sum of Denom over the same
// windows (a ratio), or by Window × the mean of the Trailing windows before
// them (a burn-rate drop: a short window against a long baseline), or leave
// it as it is; and trip when the result is above Threshold, or below it when
// Below is set. A counter's window holds its increase and a gauge's its last
// reading, so Window 1 reads a gauge's latest value. A detector whose Metric
// has no sealed window yet never trips.
type Detector struct {
	Name   string
	Metric string
	// Denom, when set, makes the rule a ratio; a zero denominator sum never
	// trips.
	Denom  string
	Window int // default 1
	// Trailing, when set, makes the rule a drop against the mean of the
	// Trailing windows before the last Window, and it waits until all of
	// them are sealed.
	Trailing  int
	Threshold float64
	Below     bool
	// MinActivity gates a drop: the trailing mean must be at least this
	// large for a drop to be meaningful, so an idle system never "drops".
	MinActivity float64
}

// DefaultDetectors is the stock rule set, covering the failure modes the
// rest of the repo can produce: throughput collapse, fault-path pressure,
// accelerator-model drift, and durability backlog.
func DefaultDetectors() []Detector {
	return []Detector{
		{
			Name:   "throughput-drop",
			Metric: "streamhist_server_bytes_moved_total",
			Window: 5, Trailing: 30, Threshold: 0.3, Below: true, MinActivity: 4096,
		},
		{
			Name:   "quarantine-ratio",
			Metric: "streamhist_server_pages_quarantined_total",
			Denom:  "streamhist_server_pages_moved_total",
			Window: 10, Threshold: 0.05,
		},
		{
			Name:   "degraded-ratio",
			Metric: "streamhist_server_scans_degraded_total",
			Denom:  "streamhist_server_scans_served_total",
			Window: 10, Threshold: 0.5,
		},
		{
			Name:   "hwprof-consistency",
			Metric: "streamhist_hwprof_consistency", Threshold: 1, Below: true,
		},
		{
			Name:   "wal-drops",
			Metric: "streamhist_durable_wal_dropped_total",
		},
		{
			Name:      "checkpoint-age",
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
	t     *Timeline
	rules []rule

	ring      obs.Ring[Anomaly]
	trips     uint64
	bundleSeq uint64
}

// rule is one detector with its trip counter and last trip time.
type rule struct {
	Detector
	counter  *obs.Counter
	lastTrip time.Time
}

func newEngine(t *Timeline, dets []Detector) *engine {
	e := &engine{t: t, rules: make([]rule, 0, len(dets)), ring: obs.NewRing[Anomaly](defaultAnomalyRing)}
	for _, d := range dets {
		if d.Window <= 0 {
			d.Window = 1
		}
		e.rules = append(e.rules, rule{Detector: d, counter: t.o.Registry().Counter(
			fmt.Sprintf(`streamhist_anomaly_trips_total{detector="%s"}`, obs.LabelValue(d.Name)),
			"Anomaly detector trips.")})
	}
	return e
}

// evaluate runs every detector against the freshly sealed base windows.
// Caller holds t.mu.
func (e *engine) evaluate(now time.Time) {
	for i := range e.rules {
		r := &e.rules[i]
		if !r.lastTrip.IsZero() && now.Sub(r.lastTrip) < e.t.cooldown {
			continue
		}
		a, tripped := e.check(&r.Detector)
		if !tripped {
			continue
		}
		a.TimeMS = now.UnixMilli()
		r.lastTrip = now
		e.trips++
		r.counter.Inc()
		e.t.writeBundleLocked(&a, now)
		e.ring.Push(a)
		e.t.o.Logger().Warn("anomaly detected",
			"detector", a.Detector, "metric", a.Metric,
			"value", a.Value, "threshold", a.Threshold, "bundle", a.Bundle)
	}
}

// check applies the detector rule to d over the sealed base windows.
func (e *engine) check(d *Detector) (Anomaly, bool) {
	a := Anomaly{Detector: d.Name, Metric: d.Metric, Threshold: d.Threshold}
	v, n := e.t.sumWindows(d.Metric, 0, d.Window)
	if n == 0 {
		return a, false
	}
	what := d.Metric
	switch {
	case d.Denom != "":
		den, _ := e.t.sumWindows(d.Denom, 0, d.Window)
		if den <= 0 {
			return a, false
		}
		v /= den
		what += "/" + d.Denom
	case d.Trailing > 0:
		base, m := e.t.sumWindows(d.Metric, d.Window, d.Trailing)
		trailing := base / float64(d.Trailing)
		if m < d.Trailing || trailing <= 0 || trailing < d.MinActivity {
			return a, false // no full baseline yet, or too idle to drop
		}
		v /= float64(d.Window) * trailing
		what += " / trailing mean"
	}
	tripped, side := v > d.Threshold, "above"
	if d.Below {
		tripped, side = v < d.Threshold, "below"
	}
	if !tripped {
		return a, false
	}
	a.Value = v
	a.Message = fmt.Sprintf("%s = %g over the last %d windows (trip %s %g)", what, v, d.Window, side, d.Threshold)
	return a, true
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
