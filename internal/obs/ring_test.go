package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRing covers the one ring every bounded store in the package is built
// on: filling, wrapping, both read orders, over-asking, and zero capacity.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		pushes   int
		n        int
		newest   []int
		oldest   []int
	}{
		{"empty", 4, 0, 3, []int{}, []int{}},
		{"filling", 4, 3, 4, []int{3, 2, 1}, []int{1, 2, 3}},
		{"exactly full", 4, 4, 4, []int{4, 3, 2, 1}, []int{1, 2, 3, 4}},
		{"wrapped", 4, 6, 4, []int{6, 5, 4, 3}, []int{3, 4, 5, 6}},
		{"wrapped twice", 3, 8, 3, []int{8, 7, 6}, []int{6, 7, 8}},
		{"n below len", 4, 6, 2, []int{6, 5}, []int{5, 6}},
		{"n above len", 4, 6, 100, []int{6, 5, 4, 3}, []int{3, 4, 5, 6}},
		{"n zero", 4, 6, 0, []int{}, []int{}},
		{"n negative", 4, 6, -1, []int{}, []int{}},
		{"zero capacity", 0, 5, 3, []int{}, []int{}},
		{"negative capacity", -2, 5, 3, []int{}, []int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			for v := 1; v <= tc.pushes; v++ {
				r.Push(v)
			}
			if want := min(tc.pushes, max(tc.capacity, 0)); r.Len() != want {
				t.Fatalf("Len = %d, want %d", r.Len(), want)
			}
			if got := r.Newest(tc.n); !reflect.DeepEqual(got, tc.newest) {
				t.Errorf("Newest(%d) = %v, want %v", tc.n, got, tc.newest)
			}
			if got := r.Oldest(tc.n); !reflect.DeepEqual(got, tc.oldest) {
				t.Errorf("Oldest(%d) = %v, want %v", tc.n, got, tc.oldest)
			}
			// At indexes oldest-first over everything held, in place.
			all := r.Oldest(r.Len())
			for i := range all {
				if *r.At(i) != all[i] {
					t.Errorf("At(%d) = %d, want %d", i, *r.At(i), all[i])
				}
			}
			if r.Len() > 0 {
				*r.At(0) = -1
				if got := r.Oldest(r.Len())[0]; got != -1 {
					t.Errorf("write through At(0) not visible: oldest = %d", got)
				}
			}
		})
	}
}

// TestFlightRetentionPolicy pins the tail-sampling policy of the one store
// through the real hand-over path: anomalous records are always kept,
// healthy ones 1-in-TailSample, the accounting adds up, Seq gaps among
// retained records are exactly what sampling dropped, both views hold the
// same pointers, and publishing allocates nothing.
func TestFlightRetentionPolicy(t *testing.T) {
	const scans = 41
	o := &Obs{trace: NewTracer(64)}
	var anomalous, healthy int
	for i := 1; i <= scans; i++ {
		rec := StartScan(uint64(i), "server", fmt.Sprintf("t%d", i), "c", 0)
		rec.Client = "10.0.0.1:1"
		if i%5 == 0 {
			rec.QuarantinedPages = 1
			anomalous++
		} else {
			healthy++
		}
		o.Publish(rec)
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d got Seq %d: every published record is numbered", i, rec.Seq)
		}
	}

	retained := o.trace.Tail(scans)
	offered, kept := uint64(scans), uint64(len(retained))
	wantKeptHealthy := (healthy + TailSample - 1) / TailSample // the 1st, 5th, 9th... healthy record
	sampledAway := uint64(healthy - wantKeptHealthy)
	if kept != uint64(anomalous+wantKeptHealthy) || offered != kept+sampledAway {
		t.Fatalf("tail ring keeps %d of %d records; want %d anomalous + %d healthy, and offered = kept + sampled away",
			kept, offered, anomalous, wantKeptHealthy)
	}
	var keptAnomalous int
	gaps := uint64(0)
	prev := offered + 1
	for _, rec := range retained { // newest first
		if rec.Anomalous {
			keptAnomalous++
		}
		if rec.Anomalous != (rec.QuarantinedPages > 0) {
			t.Errorf("record %d: Anomalous = %v with %d quarantined pages", rec.ID, rec.Anomalous, rec.QuarantinedPages)
		}
		gaps += prev - rec.Seq - 1
		prev = rec.Seq
	}
	gaps += prev - 1
	if keptAnomalous != anomalous {
		t.Errorf("retained %d of %d anomalous records; all must be kept", keptAnomalous, anomalous)
	}
	if gaps != sampledAway {
		t.Errorf("Seq gaps among retained records add up to %d, sampling dropped %d", gaps, sampledAway)
	}

	// The recent-scans view is unsampled and holds the same pointers.
	recent := o.trace.Recent(scans)
	if len(recent) != scans {
		t.Fatalf("recent-scans ring holds %d of %d scans", len(recent), scans)
	}
	bySeq := map[uint64]*ScanRecord{}
	for _, rec := range recent {
		bySeq[rec.Seq] = rec
	}
	for _, rec := range retained {
		if bySeq[rec.Seq] != rec {
			t.Fatalf("the two views hold different records for Seq %d", rec.Seq)
		}
	}

	// Numbering, both ring pushes and both sketch updates allocate nothing.
	rec := StartScan(1, "server", "lineitem", "l_tax", 0)
	rec.Client = "10.0.0.2:1"
	if n := testing.AllocsPerRun(100, func() { o.trace.Publish(rec) }); n != 0 {
		t.Errorf("Tracer.Publish allocates %v times per record", n)
	}
}
