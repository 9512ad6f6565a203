package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"streamhist/internal/obs"
)

// runTrace is the `histcli trace` subcommand: it fetches one assembled
// distributed trace from a histserved introspection endpoint and renders it
// as a terminal waterfall — every client, server, and lane span on a shared
// time axis, children indented under their parents. With -tracez it fetches
// the Chrome trace-event export instead (print or -o save, loadable in
// Perfetto); with -check it validates that export's shape and exits, so CI
// can gate on the exporter without a browser in the loop.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := addrFlag(fs)
	tracez := fs.Bool("tracez", false, "fetch the Chrome trace-event export instead of the waterfall")
	check := fs.Bool("check", false, "validate the Chrome trace-event export and exit (implies -tracez)")
	out := fs.String("o", "", "with -tracez: write the JSON to this file instead of stdout")
	width := fs.Int("width", 64, "waterfall bar area width in columns")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("trace needs exactly one <trace-id> (as printed by `histserved scan -trace`)")
	}
	id, err := obs.ParseTraceID(fs.Arg(0))
	if err != nil || id == 0 {
		return fmt.Errorf("%q is not a trace id (16 hex digits, 0x-prefixed hex, or decimal)", fs.Arg(0))
	}

	e := newEndpoint(*addr, 10*time.Second)
	q := fmt.Sprintf("?id=%016x", id)

	if *tracez || *check {
		body, err := e.get("/debug/tracez" + q)
		if err != nil {
			return err
		}
		if *check {
			n, err := validateTraceEvents(body)
			if err != nil {
				return fmt.Errorf("tracez invalid: %w", err)
			}
			fmt.Printf("tracez: OK (%d events)\n", n)
			return nil
		}
		if *out != "" {
			return os.WriteFile(*out, body, 0o644)
		}
		fmt.Println(string(body))
		return nil
	}

	var at obs.AssembledTrace
	if err := e.getJSON("/traces"+q, &at); err != nil {
		return err
	}
	printWaterfall(os.Stdout, &at, *width)
	return nil
}

// printWaterfall renders the assembled trace as an indented tree with one
// time-scaled bar per span: bar position and length map the span's window
// onto the trace's [start, end] interval, so a redialled scan reads as the
// client's backoff gap followed by a second server block. Every bar is
// clamped onto the axis: a zero-length span at the trace's very end, or one
// that malformed JSON starts before the trace, still gets one cell.
func printWaterfall(w io.Writer, at *obs.AssembledTrace, width int) {
	if width < 16 {
		width = 16
	}
	fmt.Fprintf(w, "trace %016x %s.%s: %.3f ms, %d server scan(s), %d client span(s)\n",
		at.TraceID, at.Table, at.Column, float64(at.EndNS-at.StartNS)/1e6, at.ServerScans, at.ClientSpans)

	// Index spans by ID and group children under parents; spans whose parent
	// is unknown (the client root's remote parent is 0, and a trimmed report
	// may lose interior spans) render as roots.
	byID := make(map[uint64]int, len(at.Spans))
	for i, sp := range at.Spans {
		if sp.SpanID != 0 {
			byID[sp.SpanID] = i
		}
	}
	children := make(map[int][]int)
	var roots []int
	for i, sp := range at.Spans {
		if p, ok := byID[sp.ParentID]; ok && p != i {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}
	span := at.EndNS - at.StartNS
	if span <= 0 {
		span = 1
	}

	nameW := 0
	for _, sp := range at.Spans {
		if n := len(spanLabel(sp)); n > nameW {
			nameW = n
		}
	}

	var render func(idx, depth int)
	render = func(idx, depth int) {
		sp := at.Spans[idx]
		label := strings.Repeat("  ", depth) + spanLabel(sp)
		lo := min(max(int(int64(width)*(sp.StartNS-at.StartNS)/span), 0), width-1)
		hi := min(max(int(int64(width)*(sp.StartNS+sp.DurNS-at.StartNS)/span), lo), width-1)
		bar := []byte(strings.Repeat(" ", width))
		for i := lo; i <= hi; i++ {
			bar[i] = '#'
		}
		fmt.Fprintf(w, "  %-*s |%s| %9.3f ms", nameW+2*depth, label, bar, float64(sp.DurNS)/1e6)
		if sp.HWCycles > 0 {
			fmt.Fprintf(w, "  hw %d", sp.HWCycles)
		}
		if sp.Retired {
			fmt.Fprint(w, "  [retired]")
		}
		fmt.Fprintln(w)
		kids := children[idx]
		sort.Slice(kids, func(a, b int) bool { return at.Spans[kids[a]].StartNS < at.Spans[kids[b]].StartNS })
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
}

// spanLabel is the waterfall's left-column text for one span.
func spanLabel(sp obs.Span) string {
	src := sp.Source
	if src == "" {
		src = "?"
	}
	if sp.Lane >= 0 {
		return fmt.Sprintf("%s/%s %d", src, sp.Name, sp.Lane)
	}
	return src + "/" + sp.Name
}

// validateTraceEvents checks that body parses as Chrome trace-event JSON in
// the Object Format: a traceEvents array whose events all carry a phase and
// name, with complete ("X") events additionally carrying numeric ts/dur and
// a pid. Returns the event count. This is the whole contract Perfetto needs,
// checked with nothing but encoding/json.
func validateTraceEvents(body []byte) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			return 0, fmt.Errorf("event %d: missing ph", i)
		}
		if ev.Name == nil {
			return 0, fmt.Errorf("event %d: missing name", i)
		}
		if ev.Ph == "X" {
			if ev.TS == nil || ev.Dur == nil {
				return 0, fmt.Errorf("event %d: complete event missing ts/dur", i)
			}
			if ev.Pid == nil || ev.Tid == nil {
				return 0, fmt.Errorf("event %d: complete event missing pid/tid", i)
			}
			if *ev.TS < 0 || *ev.Dur < 0 {
				return 0, fmt.Errorf("event %d: negative ts/dur", i)
			}
		}
	}
	return len(doc.TraceEvents), nil
}
