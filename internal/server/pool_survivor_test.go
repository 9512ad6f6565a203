package server_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/dbms"
	"streamhist/internal/server"
	"streamhist/internal/tpch"
)

// TestPooledSurvivorScansByteIdentical scans one wide-domain column
// (l_extendedprice: ~10 M bins, a few thousand of them non-empty) over and
// over. The first scan builds every lane's bin region from fresh memory; from
// the second on, the lanes — and the merge survivor, whose region goes back
// to the pool once the histogram is built — run on recycled regions that were
// reset sparsely, through their occupancy index. Whatever a recycled region
// held must be invisible: the catalog entry (histogram, NDV, row count, all
// sketch blocks) is compared bytewise with the first scan's. One scan in the
// middle is abandoned mid-stream, so half-fed lanes are torn down between two
// pooled scans. Meant to run under -race: the lanes build their own binners
// on their own goroutines and the serving goroutine releases them.
func TestPooledSurvivorScansByteIdentical(t *testing.T) {
	const table, column = "lineitem", "l_extendedprice"
	rel := tpch.Lineitem(12_000, 1, 11)
	srv := server.NewForTest(server.Config{ShardLanes: 2, PagesPerFrame: 2}, server.TestConfig{SideStallTimeout: time.Minute})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scan := func() []byte {
		t.Helper()
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		c := client.New(cc)
		defer c.Close()
		sum, err := c.Scan(table, column, io.Discard)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if sum.Rows != uint64(rel.NumRows()) || sum.Degraded {
			t.Fatalf("scan binned %d of %d rows (degraded %v)", sum.Rows, rel.NumRows(), sum.Degraded)
		}
		cs := srv.Catalog().Get(table, column)
		if cs == nil {
			t.Fatal("scan installed no statistics")
		}
		raw, err := dbms.AppendColumnStats(nil, cs)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	abandon := func() {
		t.Helper()
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		cc.SetDeadline(time.Now().Add(10 * time.Second))
		go server.WriteFrame(cc, server.FrameScan,
			server.EncodeScanRequest(server.ScanRequest{Table: table, Column: column})) //nolint:errcheck
		for frames := 0; frames < 3; frames++ {
			if _, err := server.ReadFrame(cc); err != nil {
				t.Fatalf("partial scan frame: %v", err)
			}
		}
		cc.Close()
	}

	first := scan()
	if srv.Catalog().Get(table, column).NDistinct < 1000 {
		t.Fatal("test column is not sparse-wide: too few distinct values")
	}
	for round := 1; round <= 4; round++ {
		if round == 2 {
			abandon()
		}
		if got := scan(); !bytes.Equal(got, first) {
			t.Fatalf("round %d: catalog entry from recycled bin regions differs from the fresh scan's (%d vs %d bytes)",
				round, len(got), len(first))
		}
	}
	if m := srv.Metrics(); m.HistogramsRefreshed != 5 {
		t.Fatalf("HistogramsRefreshed = %d, want 5", m.HistogramsRefreshed)
	}
}
