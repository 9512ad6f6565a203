package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTracer(8)
	tt := StartScan(7, "server", "lineitem", "l_quantity", 6)
	if tt.ID != 7 || tt.Table != "lineitem" || tt.Column != "l_quantity" {
		t.Fatalf("trace identity: %+v", tt)
	}
	if tt.StartNS == 0 {
		t.Fatal("trace start not stamped")
	}

	i := tt.Begin("accept")
	time.Sleep(2 * time.Millisecond)
	tt.End(i, 123)
	sp := tt.Spans[i]
	if sp.Name != "accept" || sp.Lane != -1 {
		t.Fatalf("wall span: %+v", sp)
	}
	if sp.DurNS < int64(time.Millisecond) {
		t.Fatalf("span duration %dns, slept 2ms", sp.DurNS)
	}
	if sp.HWCycles != 123 {
		t.Fatalf("span cycles = %d, want 123", sp.HWCycles)
	}
	if sp.StartNS < tt.StartNS {
		t.Fatal("span started before its trace")
	}

	// End on a bad index must not panic or touch existing spans.
	tt.End(-1, 1)
	tt.End(99, 1)
	if len(tt.Spans) != 1 {
		t.Fatalf("bad End calls changed the span slab: %d spans", len(tt.Spans))
	}

	// AddSpan with explicit endpoints (the lane-join path).
	tt.AddSpan("lane", 2, tt.StartNS+10, tt.StartNS+50, 77, false)
	lane := tt.Spans[1]
	if lane.Lane != 2 || lane.DurNS != 40 || lane.HWCycles != 77 {
		t.Fatalf("lane span: %+v", lane)
	}
	// AddSpan with zero endpoints falls back to the trace window.
	tt.AddSpan("lane", 3, 0, 0, 0, true)
	ghost := tt.Spans[2]
	if ghost.StartNS != tt.StartNS || ghost.DurNS < 0 || !ghost.Retired {
		t.Fatalf("fallback span: %+v", ghost)
	}

	(&Obs{trace: tr}).Publish(tt)
	if tt.WallNS <= 0 {
		t.Fatal("publish did not stamp the wall clock")
	}
	if got := tr.Recent(8); len(got) != 1 || got[0] != tt {
		t.Fatalf("Recent = %v, want the one published record", got)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(4)
	for id := uint64(1); id <= 6; id++ {
		tr.Publish(StartScan(id, "server", "t", "", 4))
	}
	recent := tr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d traces, ring holds 4", len(recent))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if recent[i].ID != want {
			t.Fatalf("Recent[%d].ID = %d, want %d (newest first)", i, recent[i].ID, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != 6 || got[1].ID != 5 {
		t.Fatalf("Recent(2) = %v", got)
	}
	if tr.Recent(0) != nil || tr.Recent(-1) != nil {
		t.Fatal("Recent with n<=0 returned traces")
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	for id := uint64(1); id <= DefaultTraceRing+5; id++ {
		tr.Publish(StartScan(id, "server", "t", "", 4))
	}
	if got := len(tr.Recent(DefaultTraceRing * 2)); got != DefaultTraceRing {
		t.Fatalf("default ring held %d traces, want %d", got, DefaultTraceRing)
	}
}

// TestTraceJSONShape pins the wire names the /scans endpoint (and the README
// examples) promise.
func TestTraceJSONShape(t *testing.T) {
	tr := NewTracer(2)
	tt := StartScan(1, "server", "lineitem", "l_tax", 4)
	tt.End(tt.Begin("accept"), 0)
	tt.AddSpan("lane", 0, tt.StartNS, tt.StartNS+5, 9, true)
	tt.AccelCycles = 99
	tt.Degraded = true
	tr.Publish(tt)

	raw, err := json.Marshal(tr.Recent(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "table", "column", "start_ns", "wall_ns", "accel_cycles", "refreshed", "degraded", "spans"} {
		if _, ok := m[key]; !ok {
			t.Errorf("trace JSON missing %q: %s", key, raw)
		}
	}
	spans := m["spans"].([]any)
	lane := spans[1].(map[string]any)
	for _, key := range []string{"name", "lane", "start_ns", "dur_ns", "hw_cycles", "retired"} {
		if _, ok := lane[key]; !ok {
			t.Errorf("span JSON missing %q: %s", key, raw)
		}
	}
}
