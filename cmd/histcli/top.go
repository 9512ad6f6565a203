package main

import (
	"flag"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"streamhist/internal/obs/timeline"
)

// sparkRunes are the eight block heights a sparkline cell can take.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// renderSparkline maps vals onto a width-cell sparkline, newest value last.
// More values than cells: the tail is kept (a dashboard shows the recent
// past). Fewer: the line is left-padded with spaces so the newest cell is
// always the rightmost. All-equal values render mid-height so a flat nonzero
// series is visibly "there" while an empty series renders as all padding.
func renderSparkline(vals []float64, width int) string {
	if width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	out := make([]rune, 0, width)
	for i := 0; i < width-len(vals); i++ {
		out = append(out, ' ')
	}
	if len(vals) == 0 {
		return string(out)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for _, v := range vals {
		var idx int
		switch {
		case hi == lo && hi == 0:
			idx = 0
		case hi == lo:
			idx = len(sparkRunes) / 2
		default:
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		out = append(out, sparkRunes[idx])
	}
	return string(out)
}

// defaultTopMetrics is the stock dashboard: movement, outcomes, fault
// pressure, latency, and the distinct-entity sketches — shown when -metrics
// is not given, filtered to what the server actually tracks.
var defaultTopMetrics = []string{
	"streamhist_server_bytes_moved_total",
	"streamhist_server_scans_served_total",
	"streamhist_server_histograms_refreshed_total",
	"streamhist_server_scans_degraded_total",
	"streamhist_server_pages_quarantined_total",
	"streamhist_server_scan_duration_seconds",
	"timeline_distinct_tables",
	"timeline_distinct_clients",
}

// runTop is the `histcli top` subcommand: a live terminal dashboard over a
// running histserved's /timeline endpoint — one sparkline per metric, redrawn
// every refresh interval, latest value on the right.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := addrFlag(fs)
	res := fs.String("res", "", "timeline resolution to follow (default: finest)")
	interval := fs.Duration("interval", time.Second, "refresh period")
	iters := fs.Int("n", 0, "number of refreshes before exiting (0 = run until interrupted)")
	metricsFlag := fs.String("metrics", "", "comma-separated metrics to chart (default: a stock server dashboard)")
	width := fs.Int("width", 60, "sparkline width in cells")
	fs.Parse(args)

	e := newEndpoint(*addr, 10*time.Second)
	var want []string
	if *metricsFlag != "" {
		for _, m := range strings.Split(*metricsFlag, ",") {
			if m = strings.TrimSpace(m); m != "" {
				want = append(want, m)
			}
		}
	}

	for i := 0; *iters == 0 || i < *iters; i++ {
		if i > 0 {
			time.Sleep(*interval)
			fmt.Print("\033[2J\033[H") // clear + home between frames
		}
		var idx timeline.Index
		if err := e.getJSON("/timeline", &idx); err != nil {
			return err
		}
		metrics := want
		if metrics == nil {
			metrics = pickDefaults(idx.Metrics)
		}
		r := *res
		if r == "" && len(idx.Resolutions) > 0 {
			r = idx.Resolutions[0]
		}
		nameWidth := 0
		for _, m := range metrics {
			if len(m) > nameWidth {
				nameWidth = len(m)
			}
		}
		// The frame is stamped with its newest window, not the local clock.
		var rows strings.Builder
		var newest int64
		for _, m := range metrics {
			var sd timeline.SeriesData
			if err := e.getJSON("/timeline?metric="+url.QueryEscape(m)+"&res="+url.QueryEscape(r), &sd); err != nil {
				fmt.Fprintf(&rows, "  %-*s  (%v)\n", nameWidth, m, err)
				continue
			}
			vals := make([]float64, len(sd.Points))
			for j, p := range sd.Points {
				vals[j] = p.V
				newest = max(newest, p.T)
			}
			last := 0.0
			if len(vals) > 0 {
				last = vals[len(vals)-1]
			}
			fmt.Fprintf(&rows, "  %-*s  %s  %s\n", nameWidth, m, renderSparkline(vals, *width), formatTopValue(sd.Kind, last))
		}
		fmt.Printf("histcli top — res=%s  anomaly_trips=%d  newest window %s UTC\n\n%s",
			r, idx.Trips, time.UnixMilli(newest).UTC().Format("15:04:05"), rows.String())
	}
	return nil
}

// pickDefaults intersects the stock dashboard with what the server tracks,
// then pads with whatever else is there (alphabetical) up to a screenful.
func pickDefaults(available []string) []string {
	have := make(map[string]bool, len(available))
	for _, m := range available {
		have[m] = true
	}
	var out []string
	for _, m := range defaultTopMetrics {
		if have[m] {
			out = append(out, m)
			delete(have, m)
		}
	}
	var rest []string
	for m := range have {
		rest = append(rest, m)
	}
	sort.Strings(rest)
	for _, m := range rest {
		if len(out) >= 16 {
			break
		}
		out = append(out, m)
	}
	return out
}

// formatTopValue renders a sparkline's latest value: rates and counts plain,
// distribution windows as count-per-window (the /timeline V for dists).
func formatTopValue(kind string, v float64) string {
	switch kind {
	case "distribution":
		return fmt.Sprintf("%.0f obs/window", v)
	case "distinct":
		return fmt.Sprintf("≈%.0f distinct", v)
	default:
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%.2f", v)
	}
}
