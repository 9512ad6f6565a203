package streamhist_test

import (
	"io"
	"net"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/server"
	"streamhist/internal/tpch"
)

// TestBenchmarkReadsServerSpans pins what the frozen benchmark module reads
// out of the server (benchmark/layers.go): after a traced column scan,
// Obs().Tracer().Recent(n) yields that scan with every server.span_* layer's
// span by name and a duration. A change that still compiles against Recent
// but stops yielding them would zero the benchmark's per-layer rows silently.
func TestBenchmarkReadsServerSpans(t *testing.T) {
	srv := server.New(server.Config{ShardLanes: 2})
	if err := srv.Register(tpch.Lineitem(5_000, 1, 3)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c := client.New(cc)
	defer c.Close()
	c.EnableTracing()
	if sum, err := c.Scan("lineitem", "l_quantity", io.Discard); err != nil || !sum.Refreshed {
		t.Fatalf("scan: %+v, %v", sum, err)
	}
	// The record is published after the summary frame is on the wire.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Obs().Tracer().Recent(1)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scan never published its record")
		}
		time.Sleep(time.Millisecond)
	}
	slowest := map[string]int64{}
	for _, s := range srv.Obs().Tracer().Recent(1)[0].Spans {
		slowest[s.Name] = max(slowest[s.Name], s.DurNS)
	}
	for _, name := range []string{"accept", "stream", "lane", "merge", "install"} {
		if slowest[name] <= 0 {
			t.Errorf("no %q span with a duration among the scan's spans: %v", name, slowest)
		}
	}
}
