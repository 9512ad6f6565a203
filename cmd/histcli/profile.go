package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"
	"time"

	"streamhist/internal/hwprof"
)

// runProfile is the `histcli profile` subcommand: it fetches a running
// histserved's simulated-hardware cycle profile from /debug/hwprof and
// renders it with the built-in flat (-top) or tree (-tree) views, or saves
// the raw pprof protobuf (-o) for `go tool pprof` and flamegraph tooling.
// The renderers consume the endpoint's JSON form (?format=json), decoded with
// encoding/json, so the CLI needs no protobuf decoder; -o fetches the binary
// form verbatim.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	addr := addrFlag(fs)
	seconds := fs.Int("seconds", 0, "delta window in seconds (0 means the cumulative profile)")
	top := fs.Int("top", 0, "show the N heaviest nodes as a flat table (0 with no other mode shows all)")
	tree := fs.Bool("tree", false, "render the profile as an indented stack tree with subtree sums")
	out := fs.String("o", "", "write the raw pprof protobuf (gzip) to this file instead of rendering")
	fs.Parse(args)

	e := newEndpoint(*addr, time.Duration(*seconds+30)*time.Second)
	q := url.Values{}
	if *seconds > 0 {
		q.Set("seconds", fmt.Sprint(*seconds))
	}

	if *out != "" {
		body, err := e.get("/debug/hwprof?" + q.Encode())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s (inspect with: go tool pprof -top %s)\n", len(body), *out, *out)
		return nil
	}

	q.Set("format", "json")
	prof := &hwprof.Profile{}
	if err := e.getJSON("/debug/hwprof?"+q.Encode(), prof); err != nil {
		return err
	}
	if *tree {
		return prof.WriteTree(os.Stdout)
	}
	return prof.WriteTop(os.Stdout, *top)
}
