package timeline

import (
	"math"
	"testing"
	"time"

	"streamhist/internal/obs"
)

// TestDefaultDetectorsTripTick pins each stock detector to the first tick
// its condition holds: it must stay quiet on every tick before that one
// (including ticks that sit exactly on the threshold) and trip on that one,
// with the anomaly's value and threshold as stated. Each detector runs alone
// over one base tier; feed moves the instruments before tick i is sampled.
func TestDefaultDetectorsTripTick(t *testing.T) {
	const never = -1
	cases := []struct {
		name  string
		ticks int
		// trip is the first tick that trips, or never.
		trip int
		// value and threshold are the tripping anomaly's readings.
		value, threshold float64
		feed             func(reg *obs.Registry, i int)
	}{
		{
			// 10 000 B/s for 40 s, then 1 000 B/s: the 5 s mean falls to
			// 4 600 (46 %) at tick 42 and 2 800 (28 %) at tick 43.
			name: "throughput-drop", ticks: 50, trip: 43, value: 0.28, threshold: 0.3,
			feed: func(reg *obs.Registry, i int) {
				c := reg.Counter("streamhist_server_bytes_moved_total", "")
				switch {
				case i == 0:
				case i < 40:
					c.Add(10_000)
				default:
					c.Add(1_000)
				}
			},
		},
		{
			// A trailing mean under MinActivity (4096 B/s) never drops,
			// even to nothing.
			name: "throughput-drop", ticks: 60, trip: never,
			feed: func(reg *obs.Registry, i int) {
				if c := reg.Counter("streamhist_server_bytes_moved_total", ""); i > 0 && i < 40 {
					c.Add(4_000)
				}
			},
		},
		{
			// Partial history counts: 3/300 through tick 3, then 33/400
			// with only five windows sealed.
			name: "quarantine-ratio", ticks: 8, trip: 4, value: 33.0 / 400, threshold: 0.05,
			feed: func(reg *obs.Registry, i int) {
				q := reg.Counter("streamhist_server_pages_quarantined_total", "")
				m := reg.Counter("streamhist_server_pages_moved_total", "")
				if i == 0 {
					return
				}
				m.Add(100)
				if i < 4 {
					q.Add(1)
				} else {
					q.Add(30)
				}
			},
		},
		{
			// Over a full 10-window span the degraded share climbs by 0.1 a
			// tick from tick 12: exactly 0.5 at tick 16 holds, 0.6 trips.
			name: "degraded-ratio", ticks: 20, trip: 17, value: 0.6, threshold: 0.5,
			feed: func(reg *obs.Registry, i int) {
				d := reg.Counter("streamhist_server_scans_degraded_total", "")
				s := reg.Counter("streamhist_server_scans_served_total", "")
				if i == 0 {
					return
				}
				s.Add(10)
				if i >= 12 {
					d.Add(10)
				}
			},
		},
		{
			// No denominator activity: nothing to divide by, no trip.
			name: "degraded-ratio", ticks: 5, trip: never,
			feed: func(reg *obs.Registry, i int) {
				reg.Counter("streamhist_server_scans_degraded_total", "").Add(int64(i))
				reg.Counter("streamhist_server_scans_served_total", "")
			},
		},
		{
			// No gauge until tick 3 (no sealed window: quiet), consistent
			// until tick 6, drifted from then on.
			name: "hwprof-consistency", ticks: 9, trip: 6, value: 0, threshold: 1,
			feed: func(reg *obs.Registry, i int) {
				switch {
				case i < 3:
				case i < 6:
					reg.Gauge("streamhist_hwprof_consistency", "").Set(1)
				default:
					reg.Gauge("streamhist_hwprof_consistency", "").Set(0)
				}
			},
		},
		{
			// Primed at tick 0, quiet through tick 3, one dropped record
			// before tick 4.
			name: "wal-drops", ticks: 6, trip: 4, value: 1, threshold: 0,
			feed: func(reg *obs.Registry, i int) {
				if c := reg.Counter("streamhist_durable_wal_dropped_total", ""); i == 4 {
					c.Inc()
				}
			},
		},
		{
			// No gauge until tick 2, then 100 s, exactly 300 s at tick 4
			// (holds), 301 s at tick 5.
			name: "checkpoint-age", ticks: 7, trip: 5, value: 301, threshold: 300,
			feed: func(reg *obs.Registry, i int) {
				ages := map[int]int64{2: 100, 3: 200, 4: 300, 5: 301, 6: 302}
				if v, ok := ages[i]; ok {
					reg.Gauge("streamhist_durable_checkpoint_age_seconds", "").Set(v)
				}
			},
		},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		var det []Detector
		for _, d := range DefaultDetectors() {
			if d.Name == tc.name {
				det = append(det, d)
			}
		}
		if len(det) != 1 {
			t.Fatalf("%s: not a default detector", tc.name)
		}
		seen[tc.name] = true
		o := obs.New()
		reg := o.Registry()
		tl := NewForTest(o, "", TestConfig{
			Resolutions: []Res{{Step: time.Second, Len: 64}},
			Detectors:   det,
		})
		for i := 0; i < tc.ticks; i++ {
			tc.feed(reg, i)
			tl.Tick(testEpoch.Add(time.Duration(i) * time.Second))
			want := uint64(0)
			if tc.trip != never && i >= tc.trip {
				want = 1
			}
			if got := tl.Trips(); got != want {
				t.Fatalf("%s: tick %d: trips = %d, want %d (first trip at %d): %+v",
					tc.name, i, got, want, tc.trip, tl.Anomalies(1))
			}
			if i == tc.trip {
				a := tl.Anomalies(1)[0]
				if a.Detector != tc.name || a.Metric != det[0].Metric ||
					math.Abs(a.Value-tc.value) > 1e-9 || a.Threshold != tc.threshold {
					t.Errorf("%s: anomaly = %+v, want value %v threshold %v", tc.name, a, tc.value, tc.threshold)
				}
			}
		}
	}
	for _, d := range DefaultDetectors() {
		if !seen[d.Name] {
			t.Errorf("default detector %s has no case", d.Name)
		}
	}
}
