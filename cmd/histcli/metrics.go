package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"streamhist/internal/obs"
)

// runMetrics is the `histcli metrics` subcommand: it scrapes a histserved
// introspection endpoint (-metrics-addr on the server side) and renders the
// exposition plus the last K scan traces for a human. With -check it also
// validates the exposition syntax and fails on the first malformed line, so
// CI can gate on a scrape without a real Prometheus in the loop.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := addrFlag(fs)
	nScans := fs.Int("scans", 5, "how many recent scan traces to show (0 skips /scans)")
	check := fs.Bool("check", false, "validate the exposition format and fail on malformed lines")
	raw := fs.Bool("raw", false, "print the exposition verbatim instead of the pretty form")
	grep := fs.String("grep", "", "only show metrics whose name (labels included) contains this substring")
	fs.Parse(args)

	e := newEndpoint(*addr, 10*time.Second)
	body, err := e.get("/metrics")
	if err != nil {
		return err
	}
	if *check {
		if verr := obs.ValidateExposition(body); verr != nil {
			return fmt.Errorf("exposition invalid: %w", verr)
		}
		fmt.Println("exposition: OK")
	}
	if *raw {
		for _, line := range strings.SplitAfter(string(body), "\n") {
			if strings.Contains(line, *grep) {
				fmt.Print(line)
			}
		}
	} else {
		printExposition(os.Stdout, string(body), *grep)
	}

	if *nScans > 0 {
		var traces []obs.ScanRecord
		if err := e.getJSON(fmt.Sprintf("/scans?n=%d", *nScans), &traces); err != nil {
			return err
		}
		printTraces(traces)
	}
	return nil
}

// printExposition renders the samples of a Prometheus text document aligned
// in two columns, series then value, dropping the HELP/TYPE scaffolding and
// the timestamps a human reading a terminal does not need; an OpenMetrics
// exemplar follows its value. A non-empty grep keeps only samples whose
// line contains the substring.
func printExposition(w io.Writer, text, grep string) {
	type sample struct{ series, value, exemplar string }
	var samples []sample
	width := 0
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || !strings.Contains(line, grep) {
			continue
		}
		series, fields, exemplar, err := obs.SplitSample(line)
		if err != nil || len(fields) == 0 {
			continue
		}
		if exemplar != "" {
			exemplar = "  # " + exemplar
		}
		samples = append(samples, sample{series, fields[0], exemplar})
		width = max(width, len(series))
	}
	for _, s := range samples {
		fmt.Fprintf(w, "  %-*s  %s%s\n", width, s.series, s.value, s.exemplar)
	}
}

func printTraces(traces []obs.ScanRecord) {
	if len(traces) == 0 {
		fmt.Println("\nno scan traces recorded yet")
		return
	}
	fmt.Printf("\nlast %d scan trace(s), newest first:\n", len(traces))
	for _, t := range traces {
		status := "ok"
		switch {
		case t.Err != "":
			status = "ERROR " + t.Err
		case t.Degraded:
			status = "degraded"
		}
		refreshed := "refreshed"
		if !t.Refreshed {
			refreshed = "not refreshed"
		}
		fmt.Printf("scan %d %s.%s: %.3f ms wall, %d accel cycles, %s, %s\n",
			t.ID, t.Table, t.Column, float64(t.WallNS)/1e6, t.AccelCycles, refreshed, status)
		for _, sp := range t.Spans {
			lane := ""
			if sp.Lane >= 0 {
				lane = fmt.Sprintf(" %d", sp.Lane)
			}
			flag := ""
			if sp.Retired {
				flag = "  [retired]"
			}
			fmt.Printf("    %-8s %.3f ms", sp.Name+lane, float64(sp.DurNS)/1e6)
			if sp.HWCycles > 0 {
				fmt.Printf("  hw %d cycles", sp.HWCycles)
			}
			fmt.Printf("%s\n", flag)
		}
	}
}
