package stream

import (
	"errors"
	"io"
	"testing"

	"streamhist/internal/obs"
	"streamhist/internal/tpch"
)

// TestParallelScanPublishesOneRecord: the data path's trace, wide event and
// latency exemplar are one record, so they agree exactly on identity, start
// and wall time — the event's start is the trace's, not "now − wall".
func TestParallelScanPublishesOneRecord(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 13)
	dp, err := NewParallelDataPath(rel, "l_quantity", TenGbE, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.Obs{Reg: obs.NewRegistry(), Trace: obs.NewTracer(4)}
	dp.Obs = o
	res, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}

	scans, events := o.Trace.Recent(4), o.Trace.Tail(4)
	if len(scans) != 1 || len(events) != 1 || scans[0] != events[0] {
		t.Fatalf("one scan published %d trace rows and %d event rows (same record: %v)",
			len(scans), len(events), len(scans) == 1 && len(events) == 1 && scans[0] == events[0])
	}
	rec := scans[0]
	if rec.Source != "stream" || rec.ID != 1 || rec.Seq != 1 || rec.TraceID == 0 || rec.Err != "" {
		t.Errorf("record identity: %+v", rec)
	}
	if rec.Bytes != uint64(res.HostBytes) || rec.Rows != uint64(rel.NumRows()) ||
		rec.AccelCycles != uint64(res.CriticalPathCycles) {
		t.Errorf("record volume %d bytes / %d rows / %d cycles, result %d / %d / %d",
			rec.Bytes, rec.Rows, rec.AccelCycles, res.HostBytes, rel.NumRows(), res.CriticalPathCycles)
	}
	names := map[string]int{}
	for _, sp := range rec.Spans {
		names[sp.Name]++
		if sp.StartNS < rec.StartNS || sp.DurNS <= 0 || sp.StartNS+sp.DurNS > rec.StartNS+rec.WallNS {
			t.Errorf("span %q [%d, +%d] outside the record's window [%d, +%d]",
				sp.Name, sp.StartNS, sp.DurNS, rec.StartNS, rec.WallNS)
		}
	}
	if names["scan"] != 1 || names["fanout"] != 1 || names["drain"] != 1 || names["merge"] != 1 || names["lane"] != 3 {
		t.Errorf("span names: %v", names)
	}
	ex, ok := o.Reg.Distribution("streamhist_stream_scan_duration_seconds", "", 1e-9).Exemplar()
	if !ok || ex.TraceID != rec.TraceID || ex.Value != rec.WallNS {
		t.Errorf("exemplar %+v (ok %v) is not the record's trace %#x / %d ns", ex, ok, rec.TraceID, rec.WallNS)
	}
}

// failingSink rejects every write, failing the scan's host copy.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

// A failed scan still hands its record over — once, with the error and every
// span closed — and bumps none of the completed-scan instruments.
func TestParallelScanPublishesFailures(t *testing.T) {
	dp, err := NewParallelDataPath(tpch.Lineitem(5_000, 1, 13), "l_quantity", TenGbE, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.Obs{Reg: obs.NewRegistry(), Trace: obs.NewTracer(4)}
	dp.Obs = o
	if _, err := dp.Scan(failingSink{}, 0); err == nil {
		t.Fatal("scan into a failing sink succeeded")
	}
	recent := o.Trace.Recent(4)
	if len(recent) != 1 || recent[0].Err == "" || !recent[0].Anomalous {
		t.Fatalf("failed scan's records: %+v", recent)
	}
	for _, sp := range recent[0].Spans {
		if sp.DurNS <= 0 || sp.DurNS > recent[0].WallNS {
			t.Errorf("span %q of a failed scan: dur %d ns, wall %d ns", sp.Name, sp.DurNS, recent[0].WallNS)
		}
	}
	if n := o.Reg.Counter("streamhist_stream_scans_total", "").Value(); n != 0 {
		t.Errorf("streamhist_stream_scans_total = %d after a failed scan", n)
	}
}
