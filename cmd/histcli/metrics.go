package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	addr := fs.String("addr", "localhost:7745", "server introspection address (histserved -metrics-addr)")
	nScans := fs.Int("scans", 5, "how many recent scan traces to show (0 skips /scans)")
	check := fs.Bool("check", false, "validate the exposition format and fail on malformed lines")
	raw := fs.Bool("raw", false, "print the exposition verbatim instead of the pretty form")
	grep := fs.String("grep", "", "only show metrics whose name (labels included) contains this substring")
	fs.Parse(args)

	hc := &http.Client{Timeout: 10 * time.Second}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	body, err := httpGet(hc, base+"/metrics")
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
			if *grep == "" || strings.Contains(line, *grep) {
				fmt.Print(line)
			}
		}
	} else {
		printExposition(string(body), *grep)
	}

	if *nScans > 0 {
		tb, err := httpGet(hc, base+"/scans?n="+url.QueryEscape(fmt.Sprint(*nScans)))
		if err != nil {
			return err
		}
		var traces []obs.ScanRecord
		if err := json.Unmarshal(tb, &traces); err != nil {
			return fmt.Errorf("decoding /scans: %w", err)
		}
		printTraces(traces)
	}
	return nil
}

func httpGet(hc *http.Client, u string) ([]byte, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// printExposition renders the samples of a Prometheus text document aligned
// in two columns, dropping the HELP/TYPE scaffolding a human reading a
// terminal does not need. A non-empty grep keeps only samples whose full
// name (labels included) contains the substring.
func printExposition(text, grep string) {
	type sample struct{ name, value string }
	var samples []sample
	width := 0
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if grep != "" && !strings.Contains(line, grep) {
			continue
		}
		// name[{labels}] value [timestamp] — split at the last space run.
		cut := strings.LastIndexAny(line, " \t")
		if cut < 0 {
			continue
		}
		s := sample{name: strings.TrimSpace(line[:cut]), value: line[cut+1:]}
		if len(s.name) > width {
			width = len(s.name)
		}
		samples = append(samples, s)
	}
	for _, s := range samples {
		fmt.Printf("  %-*s  %s\n", width, s.name, s.value)
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
