package obs

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryScrapeHammer is the concurrency gate for the whole metrics
// path (run it under -race): writer goroutines hammer counters, gauges,
// distributions, scan-record publication, and GaugeFunc re-registration
// while a scraper loops over the real /metrics, /scans and /events handlers
// and drains the store's entity sketches as the timeline's tick does. Every
// scrape must be a
// well-formed exposition, and the hammered counter must read monotonically
// non-decreasing across scrapes — a torn or racy read would show up as a
// dip. The writers run until the scraper has seen enough overlapping
// scrapes, so the test cannot degenerate into scraping a quiesced registry.
func TestRegistryScrapeHammer(t *testing.T) {
	const (
		writers      = 8
		minIters     = 1000 // per writer, even if the scraper finishes first
		minScrapes   = 50   // scrapes guaranteed to overlap the writers
		labeledLanes = 4
	)
	o := New()
	handler := Handler(o, nil)

	// Pre-register the shared counter so even a scrape that wins the race
	// against every writer's first iteration sees a well-formed exposition.
	o.reg.Counter("hammer_total", "hammered counter")

	var stopWriters atomic.Bool
	counts := make([]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer owns one labeled gauge and shares everything else,
			// so the scrape sees both contended and uncontended instruments.
			lane := o.reg.Gauge(fmt.Sprintf("hammer_lane_cycles{lane=%q}", fmt.Sprint(w%labeledLanes)), "")
			c := o.reg.Counter("hammer_total", "hammered counter")
			d := o.reg.Distribution("hammer_latency_seconds", "", 1e-9)
			i := 0
			for ; i < minIters || !stopWriters.Load(); i++ {
				c.Inc()
				lane.Set(int64(i))
				d.Observe(int64(i%1000) * 1000)
				if i%500 == 0 {
					// Re-wiring a computed gauge mid-scrape must be safe.
					v := float64(i)
					o.reg.GaugeFunc("hammer_rewired", "", func() float64 { return v })
				}
			}
			counts[w] = int64(i)
		}(w)
	}
	// One more writer hands scan records over through the single publish
	// point while /scans and /events are read and the entity sketches are
	// drained: a record must be finished and numbered before either view can
	// see it, and the sketches swapped under the store's lock, or -race
	// reports the write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < minIters || !stopWriters.Load(); i++ {
			rec := StartScan(uint64(i), "server", "hammer", "c0", 4)
			rec.Client = fmt.Sprintf("10.0.0.%d:1", i%3)
			rec.Begin("accept") // left open: Publish closes it
			rec.QuarantinedPages = uint32(i % 2)
			o.Publish(rec)
		}
	}()

	scrapeOnce := func(path string) []byte {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	check := func(prev int64) int64 {
		body := scrapeOnce("/metrics")
		if err := ValidateExposition(body); err != nil {
			t.Fatalf("scrape produced a malformed exposition: %v\n%s", err, body)
		}
		cur, ok := sampleValue(body, "hammer_total")
		if !ok {
			t.Fatalf("scrape lost the hammered counter:\n%s", body)
		}
		if cur < prev {
			t.Fatalf("hammer_total went backwards (%d -> %d)", prev, cur)
		}
		// Interleave reads of both views over the published scan records.
		scrapeOnce("/scans?n=8")
		scrapeOnce("/events?n=8")
		o.trace.DrainEntities()
		return cur
	}

	var prev int64 = -1
	for s := 0; s < minScrapes; s++ {
		prev = check(prev)
	}
	stopWriters.Store(true)
	wg.Wait()

	// The writers have joined: the next scrape must see every increment.
	final := check(prev)
	var want int64
	for _, n := range counts {
		want += n
	}
	if final != want {
		t.Fatalf("final hammer_total = %d, want %d", final, want)
	}
	t.Logf("%d overlapping scrapes validated against %d writers (%d increments)", minScrapes, writers, want)
}

// sampleValue extracts one un-labeled integer sample from an exposition.
func sampleValue(body []byte, name string) (int64, bool) {
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}
