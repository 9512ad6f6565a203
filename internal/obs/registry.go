package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing instrument. The zero value is ready
// to use; a nil *Counter is a valid no-op, so call sites never need to guard.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative deltas are ignored — counters
// only go up; use a Gauge for values that move both ways.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instrument for values that can rise and fall. Nil
// receivers are valid no-ops.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates the instrument behind a registry entry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindDist
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindDist:
		return "summary"
	default:
		return "untyped"
	}
}

// metric is one registry entry: a full name (labels included), its base name
// for HELP/TYPE grouping, and exactly one live instrument.
type metric struct {
	name string // full name, e.g. streamhist_server_lane_cycles{lane="3"}
	base string // name with the label block stripped
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	// fn is atomic (not guarded by the registry mutex) because scrapes read
	// it after snapshot() has released the lock; re-registration may race
	// with an in-flight scrape and last-writer-wins is the intended outcome.
	fn   atomic.Pointer[func(emit func(labels string, v float64))]
	dist *Distribution
}

// computed calls the registered gauge function and hands emit each sample it
// yields under its full name: the entry's own name for an unlabelled sample,
// the family's base name with the yielded label block otherwise. An entry
// registered but not yet wired yields nothing.
func (m *metric) computed(emit func(name string, v float64)) {
	f := m.fn.Load()
	if f == nil {
		return
	}
	(*f)(func(labels string, v float64) {
		if labels == "" {
			emit(m.name, v)
		} else {
			emit(m.base+"{"+labels+"}", v)
		}
	})
}

// Registry is the process-wide instrument dictionary. Registration
// (get-or-create by name) is meant for wiring time; the returned instruments
// are updated lock-free, and getting an existing one again is a map lookup
// under the read lock that allocates nothing. A nil *Registry is valid
// everywhere and yields nil (no-op) instruments — that is the "no-op
// registry" the instrumentation-overhead benchmark compares against.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// splitName separates a full metric name into its base name and label block.
// Both parts are validated; registration panics on malformed names because a
// bad name is a programming error that would poison every scrape.
func splitName(full string) (base string, err error) {
	base = full
	if i := strings.IndexByte(full, '{'); i >= 0 {
		if !strings.HasSuffix(full, "}") {
			return "", fmt.Errorf("obs: metric %q: unterminated label block", full)
		}
		base = full[:i]
		if err := validateLabels(full[i+1 : len(full)-1]); err != nil {
			return "", fmt.Errorf("obs: metric %q: %v", full, err)
		}
	}
	if !validMetricName(base) {
		return "", fmt.Errorf("obs: invalid metric name %q", base)
	}
	return base, nil
}

// validMetricName enforces the Prometheus identifier charset.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validateLabels checks a comma-separated name="value" list. Values must be
// pre-escaped by the caller (LabelValue does this).
func validateLabels(s string) error {
	if s == "" {
		return fmt.Errorf("empty label block")
	}
	for _, pair := range splitLabelPairs(s) {
		eq := strings.Index(pair, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed label pair %q", pair)
		}
		name, val := pair[:eq], pair[eq+1:]
		if !validMetricName(name) || strings.ContainsAny(name, ":") {
			return fmt.Errorf("invalid label name %q", name)
		}
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			return fmt.Errorf("label %q value must be quoted", name)
		}
	}
	return nil
}

// splitLabelPairs splits on commas that are not inside a quoted value.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if depth {
				i++ // an escape: the next byte is not a delimiter
			}
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// labelEscaper is built once: a Replacer compiles its table on first use and
// is safe for concurrent callers.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// LabelValue escapes a raw string for use inside a label block: backslash,
// double quote, and newline get escaped per the exposition format. The result
// goes between the quotes as it is — format it with "%s", not %q, which
// would escape it a second time.
func LabelValue(raw string) string { return labelEscaper.Replace(raw) }

// register get-or-creates the entry for name, enforcing kind agreement. An
// existing name is found under the read lock before anything is parsed; a
// new one is validated, and its instrument instantiated before the entry
// becomes visible to scrapes: an entry published with its instrument still
// nil would crash a concurrent WritePrometheus. scale only applies to
// distributions.
func (r *Registry) register(name, help string, kind metricKind, scale float64) *metric {
	r.mu.RLock()
	m, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		base, err := splitName(name)
		if err != nil {
			panic(err)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if m, ok = r.byName[name]; !ok {
			m = &metric{name: name, base: base, help: help, kind: kind}
			switch kind {
			case kindCounter:
				m.counter = new(Counter)
			case kindGauge:
				m.gauge = &Gauge{name: name}
			case kindDist:
				m.dist = newDistribution(name, scale)
			}
			r.byName[name] = m
			r.ordered = append(r.ordered, m)
			return m
		}
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
	}
	return m
}

// Counter returns the counter registered under name (labels allowed in the
// name, e.g. `foo_total{shard="2"}`), creating it on first use. Nil
// registries return nil counters.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, 0).counter
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, 0).gauge
}

// GaugeFunc registers a computed gauge: fn is called at scrape time. The
// function must be safe for concurrent use. Re-registering the same name
// replaces the function (last writer wins), which lets a restarted component
// re-wire its gauges.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if fn == nil {
		return
	}
	r.GaugeFuncs(name, help, func(emit func(string, float64)) { emit("", fn()) })
}

// GaugeFuncs registers a computed gauge family under the base name: every
// time the registry is read (a scrape, a timeline tick), fn yields one
// sample per label set through emit — labels is the block's content without
// braces, its values escaped with LabelValue — so a family whose label sets
// come and go with the data costs nothing until it is read. The function
// must be safe for concurrent use; re-registration replaces it as for
// GaugeFunc.
func (r *Registry) GaugeFuncs(name, help string, fn func(emit func(labels string, v float64))) {
	if r == nil || fn == nil {
		return
	}
	r.register(name, help, kindGaugeFunc, 0).fn.Store(&fn)
}

// Distribution returns the distribution registered under name, creating it
// on first use with the given exposition scale (multiplied into quantile,
// sum, and bucket values at scrape time — e.g. 1e-9 to record nanoseconds
// and expose seconds). Scale is fixed at first registration.
func (r *Registry) Distribution(name, help string, scale float64) *Distribution {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindDist, scale).dist
}

// SampleKind discriminates what a Sample carries.
type SampleKind uint8

const (
	// SampleCounter marks a cumulative value (timeline consumers take
	// deltas between samples).
	SampleCounter SampleKind = iota
	// SampleGauge marks a point-in-time value (gauges and gauge funcs).
	SampleGauge
	// SampleDist marks a distribution; Dist is set instead of Value.
	SampleDist
)

// Sample is one instrument's scrape-time reading, the unit the timeline
// sampler consumes. Counters and gauges carry Value; distributions carry the
// live *Distribution so the consumer can snapshot its bins.
type Sample struct {
	Name string
	Kind SampleKind
	// Value is the instrument reading for counters, gauges, and computed
	// gauges (one Sample per label set of a family).
	Value float64
	// Dist is the live distribution for SampleDist entries.
	Dist *Distribution
}

// Samples appends one Sample per registered instrument to buf (reusing its
// capacity) and returns the extended slice, in registration order. It takes
// the registration lock only to copy the entry list; the instrument reads
// are the same lock-free atomics a scrape performs. A nil registry returns
// buf unchanged.
func (r *Registry) Samples(buf []Sample) []Sample {
	if r == nil {
		return buf
	}
	for _, m := range r.snapshot() {
		switch m.kind {
		case kindCounter:
			buf = append(buf, Sample{Name: m.name, Kind: SampleCounter, Value: float64(m.counter.Value())})
		case kindGauge:
			buf = append(buf, Sample{Name: m.name, Kind: SampleGauge, Value: float64(m.gauge.Value())})
		case kindGaugeFunc:
			m.computed(func(name string, v float64) {
				buf = append(buf, Sample{Name: name, Kind: SampleGauge, Value: v})
			})
		case kindDist:
			buf = append(buf, Sample{Name: m.name, Kind: SampleDist, Dist: m.dist})
		}
	}
	return buf
}

// snapshot returns the ordered metric list for the exposition writer.
func (r *Registry) snapshot() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*metric, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// sortedForExposition groups metrics by base name (stable within a group by
// registration order) so HELP/TYPE headers are emitted exactly once per
// family, as the exposition format requires.
func sortedForExposition(ms []*metric) []*metric {
	firstSeen := make(map[string]int, len(ms))
	for i, m := range ms {
		if _, ok := firstSeen[m.base]; !ok {
			firstSeen[m.base] = i
		}
	}
	out := make([]*metric, len(ms))
	copy(out, ms)
	sort.SliceStable(out, func(i, j int) bool {
		return firstSeen[out[i].base] < firstSeen[out[j].base]
	})
	return out
}
