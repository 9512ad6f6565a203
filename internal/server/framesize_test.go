package server_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"streamhist/internal/dbms"
	"streamhist/internal/server"
	"streamhist/internal/tpch"
)

// TestModelIndependentOfFrameSize: the frame is the transport's unit, the
// lanes.Unit the model's. Serving the same relation at 16, 64 and 127 pages
// a frame — one unit a frame, four, and frames that end mid-unit — must deal
// every page to the same lane, so the simulated cost (AccelCycles), the
// installed catalog entry (its WAL record body, AppendColumnStats) and each
// lane's hwprof subtree come out identical, on the friendly column and on
// the ~10 M-bin one. Three lanes, so a frame's unit count and the lane count
// share no factor and any per-frame restart of the dealing would show.
func TestModelIndependentOfFrameSize(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 29) // 158 pages: 10 units
	type outcome struct {
		cycles uint64
		stats  []byte
		lanes  map[string]int64
	}
	var want map[string]outcome
	for _, ppf := range []int{16, 64, 127} {
		srv := server.NewForTest(server.Config{ShardLanes: 3, PagesPerFrame: ppf}, server.TestConfig{SideStallTimeout: time.Minute})
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(srv)
		got := make(map[string]outcome)
		prof := srv.Obs().Profiler()
		for _, column := range []string{"l_quantity", "l_extendedprice"} {
			before := prof.Snapshot()
			sum, err := c.Scan("lineitem", column, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Refreshed || sum.Degraded {
				t.Fatalf("ppf %d, %s: scan summary %+v", ppf, column, sum)
			}
			stats, err := dbms.AppendColumnStats(nil, srv.Catalog().Get("lineitem", column))
			if err != nil {
				t.Fatal(err)
			}
			delta := prof.Snapshot().Sub(before)
			lanes := make(map[string]int64)
			for _, lane := range delta.Lanes() {
				lanes[lane] = delta.SubtreeCycles(lane)
			}
			if len(lanes) < 3 {
				t.Fatalf("ppf %d, %s: hwprof subtrees %v, want three lanes and the merge", ppf, column, lanes)
			}
			got[column] = outcome{sum.AccelCycles, stats, lanes}
		}
		c.Close()
		srv.Close()
		if want == nil {
			want = got
			continue
		}
		for column, w := range want {
			g := got[column]
			if g.cycles != w.cycles {
				t.Errorf("ppf %d, %s: AccelCycles %d, at 16 pages a frame %d", ppf, column, g.cycles, w.cycles)
			}
			if !bytes.Equal(g.stats, w.stats) {
				t.Errorf("ppf %d, %s: catalog entry encodes differently from 16 pages a frame", ppf, column)
			}
			if !reflect.DeepEqual(g.lanes, w.lanes) {
				t.Errorf("ppf %d, %s: hwprof lane subtrees %v, at 16 pages a frame %v", ppf, column, g.lanes, w.lanes)
			}
		}
	}
}
