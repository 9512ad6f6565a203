package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/hist"
	"streamhist/internal/server"
	"streamhist/internal/stream"
	"streamhist/internal/tpch"
)

// TestOverloadTwoOutcomes is the case neither lane engine had a test for:
// many more concurrent scans than drain workers, over real loopback TCP, on a
// wide-domain column (l_extendedprice, ~10 M bins, slow to bin and merge) and
// a narrow one (l_quantity, 50 bins) at once. The stream always wins, so a
// scan that finds the pool busy skips its side path — and the fault posture
// must hold under that pressure exactly as it does under injected faults:
// every scan ends Refreshed and not Degraded with the serial histogram in the
// catalog, or Degraded; none hangs; every client sinks storage's bytes; and
// nothing outlives Close.
func TestOverloadTwoOutcomes(t *testing.T) {
	const clients, scansEach = 32, 2
	base := runtime.NumGoroutine()
	rel := tpch.Lineitem(6000, 1, 41)
	columns := []string{"l_extendedprice", "l_quantity", "l_quantity", "l_quantity"}

	// A lane sizing an 80 MB region beside 31 other clients on a small box
	// must not be mistaken for a stalled one: this test is about the pool.
	srv := server.NewForTest(server.Config{DrainWorkers: 2, ShardLanes: 2}, server.TestConfig{SideStallTimeout: time.Minute})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)

	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]*hist.Histogram{}
	for _, col := range columns[:2] {
		dp, err := stream.NewDataPath(rel, col, stream.GigabitEthernet)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dp.Scan(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref[col] = res.Results.Compressed
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, clients)
	var mu sync.Mutex
	clean, degraded := 0, 0
	for i := 0; i < clients; i++ {
		col := columns[i%len(columns)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			// The no-hang half of the property: a scan or a Stats read that
			// is still going a minute from now fails on this deadline.
			conn.SetDeadline(time.Now().Add(time.Minute))
			c := client.New(conn)
			defer c.Close()
			<-start
			for n := 0; n < scansEach; n++ {
				var got bytes.Buffer
				sum, err := c.Scan("lineitem", col, &got)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", col, err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					errs <- fmt.Errorf("%s: delivered bytes differ from storage", col)
					return
				}
				switch {
				case sum.Refreshed && !sum.Degraded:
					// Nothing but pool exhaustion degrades a scan here, and
					// that installs nothing: whichever scan wrote the catalog
					// entry last, it is the exact histogram.
					st, err := c.Stats("lineitem", col)
					if err != nil {
						errs <- fmt.Errorf("%s: clean scan but no stats: %w", col, err)
						return
					}
					if !st.Histogram.Equal(ref[col]) || st.Histogram.Degraded {
						errs <- fmt.Errorf("%s: catalog histogram differs from the serial one", col)
						return
					}
					mu.Lock()
					clean++
					mu.Unlock()
				case sum.Degraded:
					mu.Lock()
					degraded++
					mu.Unlock()
				default:
					errs <- fmt.Errorf("%s: third outcome, neither refreshed nor degraded: %+v", col, sum)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.SideSkipped == 0 {
		t.Errorf("%d scans against 2 drain workers never found the pool exhausted", clients*scansEach)
	}
	if clean == 0 || int64(degraded) != m.SideSkipped || int64(clean) != m.HistogramsRefreshed {
		t.Errorf("clean %d / degraded %d scans, metrics say refreshed %d / skipped %d",
			clean, degraded, m.HistogramsRefreshed, m.SideSkipped)
	}
	t.Logf("%d clean, %d degraded", clean, degraded)
	if m.LanesRetired != 0 || m.PagesQuarantined != 0 {
		t.Errorf("overload retired %d lanes and quarantined %d pages; it may only skip", m.LanesRetired, m.PagesQuarantined)
	}
	if err := shutdown(); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wantLeakFree(t, base)
}
