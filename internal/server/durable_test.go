package server_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/stream"
)

// TestServerRestartRecoversCatalogAndResume is the in-process restart
// integration test: a durable server gathers statistics, crashes (Abandon —
// the file state a kill -9 leaves), and a second server opened on the same
// directory must (a) serve the pre-crash statistics byte-identically, (b)
// report the interrupted scan as recovered, and (c) complete that scan via a
// client resume whose total delivery is byte-identical to a clean run.
func TestServerRestartRecoversCatalogAndResume(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(4000)
	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatal(err)
	}
	npages := len(want) / page.Size

	m1, err := durable.Open(dir, durable.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Config{Durable: m1, PagesPerFrame: 2})
	if err := srv1.Register(rel); err != nil {
		t.Fatal(err)
	}

	// A completed scan installs c1's statistics; the install rides the WAL.
	sc, cc := net.Pipe()
	go srv1.ServeConn(sc)
	c1 := client.New(cc)
	if _, err := c1.Scan("synthetic", "c1", io.Discard); err != nil {
		t.Fatalf("pre-crash scan: %v", err)
	}
	statsBefore, err := c1.Stats("synthetic", "c1")
	if err != nil {
		t.Fatalf("pre-crash stats: %v", err)
	}
	c1.Close()

	// A second scan is interrupted mid-stream: read a few frames, then the
	// process "dies" — the journal entry it opened never closes.
	sc2, cc2 := net.Pipe()
	go srv1.ServeConn(sc2)
	cc2.SetDeadline(time.Now().Add(10 * time.Second))
	go server.WriteFrame(cc2, server.FrameScan,
		server.EncodeScanRequest(server.ScanRequest{Table: "synthetic", Column: "c2"})) //nolint:errcheck
	var deliveredPages int
	for deliveredPages < 6 {
		f, err := server.ReadFrame(cc2)
		if err != nil {
			t.Fatalf("partial scan frame: %v", err)
		}
		if f.Type != server.FramePagesCk {
			t.Fatalf("unexpected frame type %d mid-scan", f.Type)
		}
		deliveredPages += len(f.Payload) / (page.Size + server.PageChecksumSize)
	}
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon() // kill -9: WAL queue dies unflushed, files close mid-state
	cc2.Close()
	srv1.Close()

	// Restart on the same directory.
	m2, err := durable.Open(dir, durable.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Report().OpenScans
	if len(rec) != 1 || rec[0].Table != "synthetic" || rec[0].Column != "c2" {
		t.Fatalf("recovered scans %+v, want the interrupted synthetic.c2 scan", rec)
	}
	srv2 := server.New(server.Config{Durable: m2, PagesPerFrame: 2})
	if err := srv2.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// (a) Pre-crash statistics survive byte-identically.
	sc3, cc3 := net.Pipe()
	go srv2.ServeConn(sc3)
	c2 := client.New(cc3)
	statsAfter, err := c2.Stats("synthetic", "c1")
	if err != nil {
		t.Fatalf("post-restart stats: %v", err)
	}
	hb, _ := statsBefore.Histogram.MarshalBinary()
	ha, _ := statsAfter.Histogram.MarshalBinary()
	if !bytes.Equal(hb, ha) {
		t.Fatal("recovered histogram differs from the pre-crash one")
	}
	if statsAfter.RowCount != statsBefore.RowCount ||
		statsAfter.NDistinct != statsBefore.NDistinct ||
		statsAfter.Version != statsBefore.Version {
		t.Fatalf("recovered stats header %+v, want %+v", statsAfter, statsBefore)
	}
	c2.Close()

	// (c) The interrupted scan completes via a server-side resume, adopting
	// the recovered journal entry; prefix + resumed suffix is byte-identical
	// to a clean run.
	resume, got, sum := rawScan(t, srv2, server.ScanRequest{
		Table: "synthetic", Column: "c2", Offset: uint32(deliveredPages),
	})
	start := deliveredPages - deliveredPages%2
	if resume != int64(start) {
		t.Fatalf("resume announced start %d, want %d", resume, start)
	}
	if !bytes.Equal(got, want[start*page.Size:]) {
		t.Fatal("resumed delivery differs from the clean run's suffix")
	}
	if int(sum.Pages) != npages-start {
		t.Fatalf("resumed summary counts %d pages, want %d", sum.Pages, npages-start)
	}
	if _, ok := m2.AdoptRecovered("synthetic", "c2"); ok {
		t.Fatal("resume did not adopt the recovered journal entry")
	}
}

// TestServerNoDurabilityBitIdentical pins the ephemeral contract (histserved
// serve without -data-dir): a server with no durable manager serves
// byte-for-byte what a durable server serves, and the scan/stats wire
// exchanges are identical.
func TestServerNoDurabilityBitIdentical(t *testing.T) {
	rel := testRelation(4000)
	run := func(m *durable.Manager) ([]byte, []byte) {
		srv := server.New(server.Config{Durable: m, PagesPerFrame: 4})
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		c := client.New(cc)
		defer c.Close()
		var got bytes.Buffer
		if _, err := c.Scan("synthetic", "c3", &got); err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats("synthetic", "c3")
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := st.Histogram.MarshalBinary()
		return got.Bytes(), hb
	}
	m, err := durable.Open(t.TempDir(), durable.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	durBytes, durHist := run(m)
	plainBytes, plainHist := run(nil)
	if !bytes.Equal(durBytes, plainBytes) {
		t.Fatal("page stream differs between durable and plain serving")
	}
	if !bytes.Equal(durHist, plainHist) {
		t.Fatal("histogram differs between durable and plain serving")
	}
}
