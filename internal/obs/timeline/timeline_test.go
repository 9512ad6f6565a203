package timeline

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"streamhist/internal/obs"
)

// tickN drives n manual ticks spaced one base period apart, starting at t0.
func tickN(tl *Timeline, t0 time.Time, n int) time.Time {
	for i := 0; i < n; i++ {
		t0 = t0.Add(tl.Base())
		tl.Tick(t0)
	}
	return t0
}

var testEpoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func TestCounterDeltasPerWindow(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	c := reg.Counter("test_total", "")
	c.Add(1000) // pre-existing total: must not appear as a burst
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 8}, {Step: 4 * time.Second, Len: 4}},
		Detectors:   []Detector{},
	})

	now := testEpoch
	tl.Tick(now) // primes the counter at 1000
	deltas := []int64{5, 0, 7, 3, 0, 0, 2, 1}
	for _, d := range deltas {
		c.Add(d)
		now = now.Add(time.Second)
		tl.Tick(now)
	}

	sd, ok := tl.Series("test_total", "1s")
	if !ok {
		t.Fatal("series not tracked")
	}
	if sd.Kind != "counter" || sd.StepMS != 1000 {
		t.Fatalf("series meta wrong: %+v", sd)
	}
	// 9 ticks → 9 sealed windows but ring holds 8; the first (priming, delta
	// 0) was evicted... ring len 8 keeps the last 8: exactly our deltas.
	if len(sd.Points) != 8 {
		t.Fatalf("got %d points, want 8", len(sd.Points))
	}
	for i, want := range deltas {
		if got := sd.Points[i].V; got != float64(want) {
			t.Errorf("window %d: delta %v, want %d", i, got, want)
		}
	}

	// Coarse tier: 4s windows fold four sealed 1s windows each. Nine base
	// seals produced two complete 4s windows: ticks 1-4 (0+5+0+7=12) and
	// 5-8 (3+0+0+2=5); the final delta (1) is still in the open window.
	cd, ok := tl.Series("test_total", "4s")
	if !ok {
		t.Fatal("coarse series missing")
	}
	if len(cd.Points) != 2 {
		t.Fatalf("coarse windows: got %d, want 2 (%+v)", len(cd.Points), cd.Points)
	}
	if cd.Points[0].V != 12 || cd.Points[1].V != 5 {
		t.Fatalf("coarse deltas = %v, %v; want 12, 5", cd.Points[0].V, cd.Points[1].V)
	}
}

func TestGaugeKeepsLastReading(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	g := reg.Gauge("test_gauge", "")
	tl := NewForTest(o, "", TestConfig{Resolutions: []Res{{Step: time.Second, Len: 4}}, Detectors: []Detector{}})

	g.Set(42)
	now := tickN(tl, testEpoch, 1)
	g.Set(7)
	now = tickN(tl, now, 1)
	tickN(tl, now, 1) // no movement: the reading persists

	sd, _ := tl.Series("test_gauge", "")
	if len(sd.Points) != 3 {
		t.Fatalf("got %d points", len(sd.Points))
	}
	for i, want := range []float64{42, 7, 7} {
		if sd.Points[i].V != want {
			t.Errorf("window %d = %v, want %v", i, sd.Points[i].V, want)
		}
	}
}

func TestDistributionWindowQuantiles(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	d := reg.Distribution("test_seconds", "", 1e-9)
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 8}, {Step: 2 * time.Second, Len: 4}},
		Detectors:   []Detector{},
	})

	// Two empty windows (the first sight of a series books delta 0), then a
	// thousand 1ms observations, then a thousand 100ms ones — with the two
	// bursts aligned into the same 2s coarse window.
	now := testEpoch
	tl.Tick(now)
	now = tickN(tl, now, 1)
	for i := 0; i < 1000; i++ {
		d.Observe(int64(time.Millisecond))
	}
	now = tickN(tl, now, 1)
	for i := 0; i < 1000; i++ {
		d.Observe(int64(100 * time.Millisecond))
	}
	now = tickN(tl, now, 1)

	sd, ok := tl.Series("test_seconds", "1s")
	if !ok || len(sd.Points) != 4 {
		t.Fatalf("distribution windows missing: %+v", sd)
	}
	w1, w2 := sd.Points[2], sd.Points[3]
	if w1.V != 1000 || w2.V != 1000 {
		t.Fatalf("window counts = %v, %v; want 1000 each", w1.V, w2.V)
	}
	// The windows see ONLY their own observations — that is the whole point
	// versus the lifetime distribution. p50 of window 2 must be ~100ms even
	// though the lifetime median is between the two bursts.
	if w1.P50 < 0.0008 || w1.P50 > 0.0012 {
		t.Errorf("window 1 p50 = %v s, want ≈0.001", w1.P50)
	}
	if w2.P50 < 0.08 || w2.P50 > 0.12 {
		t.Errorf("window 2 p50 = %v s, want ≈0.1", w2.P50)
	}
	if w1.Sum < 0.9 || w1.Sum > 1.1 {
		t.Errorf("window 1 sum = %v s, want ≈1.0", w1.Sum)
	}

	// The second 2s coarse window added both bursts' per-bin counts: 2000
	// counts spanning the 1ms and 100ms populations.
	cd, _ := tl.Series("test_seconds", "2s")
	if len(cd.Points) != 2 || cd.Points[1].V != 2000 {
		t.Fatalf("coarse windows = %+v, want second with 2000 counts", cd.Points)
	}
	if p50 := cd.Points[1].P50; p50 < 0.0008 || p50 > 0.12 {
		t.Errorf("merged p50 = %v, want within the two bursts' range", p50)
	}
}

// TestDistinctEntitySketches: the store counts every published record's
// table and client, and each tick drains the counts into the base window —
// including the records tail sampling drops.
func TestDistinctEntitySketches(t *testing.T) {
	o := obs.New()
	tl := NewForTest(o, "", TestConfig{Resolutions: []Res{{Step: time.Second, Len: 4}}, Detectors: []Detector{}})

	for i := 0; i < 30; i++ {
		o.Publish(&obs.ScanRecord{
			Table:  fmt.Sprintf("table%d", i%5),
			Client: fmt.Sprintf("10.0.0.%d:555", i%3),
		})
	}
	tickN(tl, testEpoch, 1)

	td, ok := tl.Series(MetricDistinctTables, "")
	if !ok || len(td.Points) != 1 {
		t.Fatalf("distinct-tables series missing: %+v", td)
	}
	if got := td.Points[0].V; got < 4 || got > 6 {
		t.Errorf("distinct tables ≈ %v, want ≈5", got)
	}
	cd, _ := tl.Series(MetricDistinctClients, "")
	if got := cd.Points[0].V; got < 2 || got > 4 {
		t.Errorf("distinct clients ≈ %v, want ≈3", got)
	}
	if td.Kind != "distinct" {
		t.Errorf("kind = %q, want distinct", td.Kind)
	}

	// Sampling must not hide entities: the tail ring keeps 5 of these 20
	// healthy records, the sketches still see all 20 tables.
	o2 := obs.New()
	tl2 := NewForTest(o2, "", TestConfig{Resolutions: []Res{{Step: time.Second, Len: 4}}, Detectors: []Detector{}})
	for i := 0; i < 20; i++ {
		o2.Publish(&obs.ScanRecord{Table: fmt.Sprintf("t%d", i)})
	}
	if kept := len(o2.Tracer().Tail(20)); kept != 5 {
		t.Fatalf("tail ring kept %d of 20 healthy records, want 5", kept)
	}
	tickN(tl2, testEpoch, 1)
	td2, _ := tl2.Series(MetricDistinctTables, "")
	if got := td2.Points[0].V; got < 17 || got > 23 {
		t.Errorf("sampled-away entities lost: distinct ≈ %v, want ≈20", got)
	}
}

// TestDistinctEntitiesPastRingDepth: the count covers every record published
// between two ticks, not the newest ring's worth — 3 000 distinct tables in
// one tick read 3 000 within the sketch's error, not the 1 024 a ring of
// copied identities would have held.
func TestDistinctEntitiesPastRingDepth(t *testing.T) {
	const tables = 3000
	o := obs.New()
	tl := NewForTest(o, "", TestConfig{Resolutions: []Res{{Step: time.Second, Len: 4}}, Detectors: []Detector{}})
	now := tickN(tl, testEpoch, 1)
	for i := 0; i < tables; i++ {
		o.Publish(&obs.ScanRecord{Table: fmt.Sprintf("table-%d", i), Client: "10.0.0.1:1"})
	}
	tickN(tl, now, 1)
	td, _ := tl.Series(MetricDistinctTables, "")
	if got := td.Points[len(td.Points)-1].V; got < 0.9*tables || got > 1.1*tables {
		t.Errorf("distinct tables ≈ %.0f after %d distinct tables in one tick, want within 10%%", got, tables)
	}
	cd, _ := tl.Series(MetricDistinctClients, "")
	if got := cd.Points[len(cd.Points)-1].V; got < 0.5 || got > 1.5 {
		t.Errorf("distinct clients ≈ %v, want ≈1", got)
	}
}

func TestNilTimelineNoops(t *testing.T) {
	var tl *Timeline
	tl.Start()
	tl.Tick(time.Now())
	if _, ok := tl.Series("x", ""); ok {
		t.Error("nil timeline returned a series")
	}
	if tl.Metrics() != nil || tl.Resolutions() != nil || tl.Anomalies(5) != nil {
		t.Error("nil timeline returned data")
	}
	if tl.Trips() != 0 || tl.Dropped() != 0 || tl.Base() != 0 {
		t.Error("nil timeline returned nonzero scalars")
	}
	tl.Close()
}

func TestMaxSeriesCap(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	tl := NewForTest(o, "", TestConfig{MaxSeries: 4,
		Resolutions: []Res{{Step: time.Second, Len: 2}}, Detectors: []Detector{}})
	for i := 0; i < 10; i++ {
		reg.Counter(fmt.Sprintf("overflow_%d_total", i), "")
	}
	tickN(tl, testEpoch, 1)
	// 2 entity series pre-exist; cap 4 leaves room for 2 counters; 8 drop.
	if got := len(tl.Metrics()); got != 4 {
		t.Errorf("tracked %d series, want 4", got)
	}
	if tl.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", tl.Dropped())
	}
	// Dropping is stable: another tick must not grow anything.
	tickN(tl, testEpoch.Add(time.Second), 1)
	if got := len(tl.Metrics()); got != 4 {
		t.Errorf("series grew past cap: %d", got)
	}
}

func TestRingWraps(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	c := reg.Counter("wrap_total", "")
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 4}}, Detectors: []Detector{}})
	now := testEpoch
	tl.Tick(now)
	for i := 1; i <= 10; i++ {
		c.Add(int64(i))
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	sd, _ := tl.Series("wrap_total", "")
	if len(sd.Points) != 4 {
		t.Fatalf("ring holds %d, want 4", len(sd.Points))
	}
	for i, want := range []float64{7, 8, 9, 10} {
		if sd.Points[i].V != want {
			t.Errorf("wrapped window %d = %v, want %v", i, sd.Points[i].V, want)
		}
	}
	// Timestamps strictly increase across the wrap.
	for i := 1; i < len(sd.Points); i++ {
		if sd.Points[i].T <= sd.Points[i-1].T {
			t.Errorf("timestamps not increasing: %v", sd.Points)
		}
	}
}

// TestTimelineRaceHammer drives concurrent instrument updates, flight
// recording, ticks, and reads through every public surface at once; its
// value is running under -race (the tier-1 suite does).
func TestTimelineRaceHammer(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	tl := NewForTest(o, t.TempDir(), TestConfig{
		Resolutions: []Res{{Step: time.Second, Len: 16}, {Step: 3 * time.Second, Len: 8}},
		Detectors: []Detector{{
			Name:   "hammer-nonzero",
			Metric: "hammer_total", Window: 1,
		}},
		Cooldown: 10 * time.Second, // simulated time: a handful of bundles
	})
	c := reg.Counter("hammer_total", "")
	d := reg.Distribution("hammer_seconds", "", 1e-9)

	// The writers publish through the one store — numbering, tail sampling,
	// entity sketches — while the readers below decode both record views and
	// Tick drains the sketches.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				d.Observe(int64(i%1000) * 1000)
				rec := obs.StartScan(uint64(i), "server", fmt.Sprintf("t%d", i%7), "c", 4)
				rec.Client = fmt.Sprintf("10.0.0.%d:1", w)
				rec.Begin("stream") // left open: Publish closes it
				rec.LanesRetired = uint32(i % 2)
				o.Publish(rec)
			}
		}(w)
	}
	handler := Handler(tl, o, nil)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, path := range []string{"/scans?n=8", "/events?n=8"} {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					var rows []obs.ScanRecord
					if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
						t.Errorf("decoding %s mid-hammer: %v", path, err)
					}
				}
				tl.Series("hammer_total", "")
				tl.Series("hammer_seconds", "3s")
				tl.Series(MetricDistinctTables, "3s")
				tl.Metrics()
				tl.Anomalies(8)
				tl.Trips()
			}
		}()
	}
	// Ticks run on the test goroutine, with a synchronous Inc before each so
	// every window is guaranteed nonzero no matter how the hammers schedule.
	now := testEpoch
	for i := 0; i < 50; i++ {
		c.Inc()
		now = now.Add(time.Second)
		tl.Tick(now)
	}
	close(stop)
	wg.Wait()

	if tl.Trips() == 0 {
		t.Error("hammer never tripped the nonzero detector")
	}
	sd, ok := tl.Series("hammer_total", "")
	if !ok || len(sd.Points) == 0 {
		t.Fatal("hammer series empty after 50 ticks")
	}
}

// TestStartCloseLifecycle exercises the real ticker goroutine briefly.
func TestStartCloseLifecycle(t *testing.T) {
	o := obs.New()
	reg := o.Registry()
	c := reg.Counter("life_total", "")
	tl := NewForTest(o, "", TestConfig{
		Resolutions: []Res{{Step: time.Millisecond, Len: 64}}, Detectors: []Detector{}})
	tl.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.Inc()
		if sd, ok := tl.Series("life_total", ""); ok && len(sd.Points) > 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tl.Close()
	sd, _ := tl.Series("life_total", "")
	if len(sd.Points) == 0 {
		t.Fatal("ticker never sealed a window")
	}
	n := len(sd.Points)
	time.Sleep(5 * time.Millisecond)
	if sd2, _ := tl.Series("life_total", ""); len(sd2.Points) < n {
		t.Error("Close lost windows")
	}
	tl.Close() // idempotent
}
