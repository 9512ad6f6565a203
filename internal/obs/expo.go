package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers once per metric
// family, counters and gauges as single samples, distributions as summaries
// with p50/p90/p99 quantile samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	lastBase := ""
	// header opens m's family on its first sample, so a computed family
	// that yields nothing is left out altogether.
	header := func(m *metric) {
		if m.base == lastBase {
			return
		}
		lastBase = m.base
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.base, escapeHelp(m.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.base, m.kind)
	}
	for _, m := range sortedForExposition(r.snapshot()) {
		switch m.kind {
		case kindCounter:
			header(m)
			fmt.Fprintf(bw, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			header(m)
			fmt.Fprintf(bw, "%s %d\n", m.name, m.gauge.Value())
		case kindGaugeFunc:
			m.computed(func(name string, v float64) {
				header(m)
				fmt.Fprintf(bw, "%s %s\n", name, formatGauge(v))
			})
		case kindDist:
			header(m)
			writeSummary(bw, m)
		}
	}
	return bw.Flush()
}

// writeSummary renders one distribution as a Prometheus summary family.
func writeSummary(w io.Writer, m *metric) {
	d := m.dist
	h := d.Histogram()
	base, labels := m.base, ""
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		labels = m.name[i+1 : len(m.name)-1]
	}
	ex, hasEx := d.Exemplar()
	for _, q := range distQuantiles {
		var v int64
		if h != nil {
			if qv, err := h.Quantile(q); err == nil {
				v = qv
			}
		}
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(w, "%s{%s%squantile=\"%s\"} %s",
			base, labels, sep, formatFloat(q), formatFloat(float64(v)*d.scale))
		// The tail quantile carries the OpenMetrics exemplar: the p99 sample
		// links to the distributed trace behind the tail.
		if hasEx && q == distQuantiles[len(distQuantiles)-1] {
			fmt.Fprintf(w, " # {trace_id=\"%016x\"} %s", ex.TraceID, formatFloat(float64(ex.Value)*d.scale))
		}
		fmt.Fprintln(w)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatFloat(float64(d.Sum())*d.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, d.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatGauge prints a computed gauge's whole values as integers, the way
// settable gauges print, and any other value as formatFloat does.
func formatGauge(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// ValidateExposition parses a Prometheus text exposition document and
// returns the first malformed line it finds, or nil when every line is
// well-formed. It checks comment structure, metric-name and label syntax,
// and that every sample value parses as a float. The CI metrics-smoke job
// and `histcli metrics -check` both gate on this, so a formatting
// regression in the registry fails fast instead of silently breaking
// scrapers.
func ValidateExposition(data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	sawSample := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line); err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			continue
		}
		if err := validateSample(line); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		sawSample = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawSample {
		return fmt.Errorf("exposition contains no samples")
	}
	return nil
}

func validateComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, allowed
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "summary", "histogram", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	default:
		// Other comments are legal and ignored.
	}
	return nil
}

// SplitSample cuts one exposition sample line,
//
//	name[{labels}] value [timestamp] [# {labels} value [timestamp]]
//
// into its series (name and label block), the value and optional timestamp
// fields, and the OpenMetrics exemplar section after " # " ("" when absent).
// It checks only the shape it needs to cut; ValidateExposition checks the
// rest.
func SplitSample(line string) (series string, fields []string, exemplar string, err error) {
	if i := strings.Index(line, " # "); i >= 0 {
		line, exemplar = line[:i], strings.TrimSpace(line[i+3:])
	}
	end := strings.IndexAny(line, " \t")
	if i := strings.IndexByte(line, '{'); i >= 0 {
		end = strings.LastIndexByte(line, '}') + 1
		if end <= i {
			return "", nil, "", fmt.Errorf("unterminated label block in %q", line)
		}
	}
	if end < 0 {
		return "", nil, "", fmt.Errorf("sample %q has no value", line)
	}
	return line[:end], strings.Fields(line[end:]), exemplar, nil
}

func validateSample(line string) error {
	// The trailing exemplar is validated with the same label/value rules as
	// the sample proper.
	series, fields, exemplar, err := SplitSample(line)
	if err != nil {
		return err
	}
	if exemplar != "" {
		if err := validateExemplar(exemplar); err != nil {
			return fmt.Errorf("%v in %q", err, line)
		}
	}
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name = series[:i]
		if err := validateLabels(series[i+1 : len(series)-1]); err != nil {
			return fmt.Errorf("%v in %q", err, line)
		}
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if len(fields) == 0 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		// The format also allows +Inf/-Inf/NaN which ParseFloat accepts.
		return fmt.Errorf("sample %q: bad value %q", line, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return nil
}

// validateExemplar checks the OpenMetrics exemplar section after " # ":
// {labels} value [timestamp].
func validateExemplar(s string) error {
	if !strings.HasPrefix(s, "{") {
		return fmt.Errorf("exemplar %q lacks label block", s)
	}
	end := strings.IndexByte(s, '}')
	if end < 0 {
		return fmt.Errorf("unterminated exemplar label block in %q", s)
	}
	if err := validateLabels(s[1:end]); err != nil {
		return fmt.Errorf("exemplar %v", err)
	}
	fields := strings.Fields(s[end+1:])
	if len(fields) == 0 || len(fields) > 2 {
		return fmt.Errorf("exemplar %q: want value [timestamp]", s)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("exemplar %q: bad value %q", s, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("exemplar %q: bad timestamp %q", s, fields[1])
		}
	}
	return nil
}
