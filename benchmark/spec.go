package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median an end-to-end metric may worsen by; per-layer
// metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the single declaration of workload and metric
// names. The harness takes every unit from it and refuses to emit a name it
// does not declare, so the file and the program cannot drift apart.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root. The harness runs
// with benchmark/ as its working directory (`go run -C benchmark .`, and
// `go test` in the package), so the root is one level up.
func loadSpec() (*spec, error) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one emitted value. A nil Value is "not applicable on this
// workload" (printed as null); Samples, when set, is the sample count a
// median was taken over.
type metric struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Value   *float64 `json:"value"`
	Samples int      `json:"samples,omitempty"`
}

// metricSet collects the values of one declared list (end-to-end or
// per-layer) and enforces "every declared name exactly once, no other".
type metricSet struct {
	decls  []metricDecl
	values map[string]metric
	errs   []string
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metric, len(decls))}
}

func (ms *metricSet) put(name string, value *float64, samples int) {
	for _, d := range ms.decls {
		if d.Name != name {
			continue
		}
		if _, dup := ms.values[name]; dup {
			ms.errs = append(ms.errs, fmt.Sprintf("metric %q emitted twice", name))
			return
		}
		ms.values[name] = metric{Name: name, Unit: d.Unit, Value: value, Samples: samples}
		return
	}
	ms.errs = append(ms.errs, fmt.Sprintf("metric %q is not declared in BENCHMARK.json", name))
}

// set records a measured value.
func (ms *metricSet) set(name string, v float64) { ms.put(name, &v, 0) }

// setN records a median together with its sample count.
func (ms *metricSet) setN(name string, v float64, samples int) { ms.put(name, &v, samples) }

// na records that the metric does not apply to this workload.
func (ms *metricSet) na(names ...string) {
	for _, n := range names {
		ms.put(n, nil, 0)
	}
}

// get returns a recorded value, or 0 when it is absent or not applicable;
// the budget arithmetic treats an inapplicable layer as free.
func (ms *metricSet) get(name string) float64 {
	if m, ok := ms.values[name]; ok && m.Value != nil {
		return *m.Value
	}
	return 0
}

// list returns the metrics in declaration order, or an error naming every
// declared metric that was not emitted and every emission that was refused.
func (ms *metricSet) list() ([]metric, error) {
	errs := ms.errs
	out := make([]metric, 0, len(ms.decls))
	for _, d := range ms.decls {
		m, ok := ms.values[d.Name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %q declared but not emitted", d.Name))
			continue
		}
		out = append(out, m)
	}
	if len(errs) > 0 {
		return out, fmt.Errorf("metric set: %v", errs)
	}
	return out, nil
}
