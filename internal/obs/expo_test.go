package obs

import (
	"strconv"
	"strings"
	"testing"
)

// buildTestRegistry wires one of every instrument kind, including a labeled
// family spread over two entries, the way the server registers lane gauges.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("streamhist_expo_scans_total", "Completed scans.").Add(42)
	r.Gauge(`streamhist_expo_lane_cycles{lane="0"}`, "Per-lane cycles.").Set(100)
	r.Gauge(`streamhist_expo_lane_cycles{lane="1"}`, "Per-lane cycles.").Set(200)
	r.GaugeFunc("streamhist_expo_uptime", "Computed gauge.", func() float64 { return 1.5 })
	d := r.Distribution("streamhist_expo_latency_seconds", "Scan latency.", 1e-9)
	for i := int64(1); i <= 1000; i++ {
		d.Observe(i * 1e6) // 1ms..1s in ns
	}
	return r
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestWritePrometheusShape(t *testing.T) {
	out := scrape(t, buildTestRegistry())

	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("our own exposition does not validate: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE streamhist_expo_scans_total counter\n",
		"streamhist_expo_scans_total 42\n",
		"# TYPE streamhist_expo_lane_cycles gauge\n",
		"streamhist_expo_lane_cycles{lane=\"0\"} 100\n",
		"streamhist_expo_lane_cycles{lane=\"1\"} 200\n",
		"streamhist_expo_uptime 1.5\n",
		"# TYPE streamhist_expo_latency_seconds summary\n",
		"streamhist_expo_latency_seconds{quantile=\"0.5\"} ",
		"streamhist_expo_latency_seconds{quantile=\"0.99\"} ",
		"streamhist_expo_latency_seconds_count 1000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per family even though the lane
	// family has two member time series.
	if n := strings.Count(out, "# TYPE streamhist_expo_lane_cycles "); n != 1 {
		t.Fatalf("labeled family emitted %d TYPE headers, want 1", n)
	}
	// A family's samples must be contiguous under its header.
	lane0 := strings.Index(out, `streamhist_expo_lane_cycles{lane="0"}`)
	lane1 := strings.Index(out, `streamhist_expo_lane_cycles{lane="1"}`)
	typeIdx := strings.Index(out, "# TYPE streamhist_expo_lane_cycles ")
	if !(typeIdx < lane0 && lane0 < lane1) {
		t.Fatal("labeled family samples not grouped under their TYPE header")
	}
}

// TestWritePrometheusSummaryScale checks the ns->seconds exposition scale:
// observations recorded in nanoseconds come out as seconds in quantile and
// sum samples.
func TestWritePrometheusSummaryScale(t *testing.T) {
	out := scrape(t, buildTestRegistry())
	var p50 float64
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, `streamhist_expo_latency_seconds{quantile="0.5"} `); ok {
			p50, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(line, "streamhist_expo_latency_seconds_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
	}
	// Uniform 1ms..1s: the median is ~0.5s and the sum ~500.5s.
	if p50 < 0.4 || p50 > 0.6 {
		t.Fatalf("scaled p50 = %v, want ~0.5s", p50)
	}
	if sum < 480 || sum > 520 {
		t.Fatalf("scaled sum = %v, want ~500.5s", sum)
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	good := strings.Join([]string{
		"# HELP a_total docs",
		"# TYPE a_total counter",
		"a_total 1",
		`b{l="x",m="y"} 2.5`,
		`e{l="a\"b\\",m="c,d"} 4`,
		"c 3 1712345678",
		"d +Inf",
		"# arbitrary comment",
		"",
	}, "\n")
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no samples":          "# TYPE a counter\n",
		"bad metric name":     "9bad 1\n",
		"missing value":       "lonely\n",
		"unparseable value":   "a one\n",
		"bad timestamp":       "a 1 soon\n",
		"unterminated labels": "a{l=\"x\" 1\n",
		"unquoted label":      "a{l=x} 1\n",
		"after escaped \\":    `a{l="x\\",m=y} 1` + "\n",
		"bad TYPE":            "# TYPE a sometype\na 1\n",
		"malformed HELP":      "# HELP 9bad docs\na 1\n",
		"too many fields":     "a 1 2 3\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition([]byte(doc)); err == nil {
			t.Errorf("%s: %q validated, want error", name, doc)
		}
	}
}
