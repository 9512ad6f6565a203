package server_test

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/faults"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/stream"
)

// pipeClient wires a client to srv over an in-process pipe with redial
// support: every reconnect spins a fresh ServeConn, exactly like redialling
// a listening server.
func pipeClient(srv *server.Server) *client.Client {
	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
	conn, _ := dial()
	c := client.New(conn)
	c.SetRedial(dial)
	c.SetRetryPolicy(32, time.Millisecond)
	return c
}

// storageBytes is the authoritative page stream for the relation.
func storageBytes(t *testing.T, rows int) []byte {
	t.Helper()
	want, err := io.ReadAll(stream.NewPagesReader(testRelation(rows)))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// Injected in-flight corruption: the client must never sink a damaged page.
// With resume enabled the scan still completes, the delivered bytes are
// byte-identical to storage, and both sides account for the damage.
func TestScanPageCorruptionResumed(t *testing.T) {
	const rows = 5000
	want := storageBytes(t, rows)

	srv := server.New(server.Config{
		Faults:        faults.New(3, faults.Profile{faults.PageCorrupt: 0.2}),
		PagesPerFrame: 4,
	})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "c1", &got)
	if err != nil {
		t.Fatalf("scan under corruption: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("delivered bytes differ from storage under injected corruption")
	}
	if sum.Retries == 0 {
		t.Fatal("a 20% page-corruption rate caused no client retries")
	}
	if !sum.Degraded {
		t.Fatal("resumed scan's summary must be Degraded")
	}
	m := srv.Metrics()
	if m.RetriesServed == 0 {
		t.Fatalf("server served %d retries, want >0", m.RetriesServed)
	}
	if m.PagesQuarantined == 0 {
		t.Fatal("the side path saw corrupt pages but quarantined none")
	}
	if m.ScansDegraded == 0 {
		t.Fatal("degraded scans not counted")
	}
}

// Injected connection resets mid-scan: the client redials, resumes from the
// last verified page, and the assembled stream is exact.
func TestScanConnResetResumed(t *testing.T) {
	const rows = 5000
	want := storageBytes(t, rows)

	srv := server.New(server.Config{
		Faults:        faults.New(5, faults.Profile{faults.ConnReset: 0.25}),
		PagesPerFrame: 2,
	})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "c1", &got)
	if err != nil {
		t.Fatalf("scan under resets: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("delivered bytes differ from storage after resumptions")
	}
	if sum.Retries == 0 {
		t.Fatal("a 25% per-frame reset rate caused no retries")
	}
	if srv.Metrics().RetriesServed == 0 {
		t.Fatal("server counted no served retries")
	}
}

// A saturated drain pool (injected) skips the side path: the stream is
// exact and full speed, the summary says Degraded, nothing is installed.
func TestScanDrainSaturationFailsOpen(t *testing.T) {
	const rows = 1000
	want := storageBytes(t, rows)

	srv := server.New(server.Config{
		Faults: faults.New(1, faults.Profile{faults.DrainSaturate: 1.0}),
	})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "c1", &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("stream bytes changed under drain saturation")
	}
	if sum.Refreshed {
		t.Fatal("saturated pool cannot have refreshed a histogram")
	}
	if !sum.Degraded {
		t.Fatal("skipped side path must surface as Degraded")
	}
	m := srv.Metrics()
	if m.SideSkipped == 0 || m.ScansDegraded == 0 {
		t.Fatalf("metrics: SideSkipped=%d ScansDegraded=%d, want both >0", m.SideSkipped, m.ScansDegraded)
	}
	if _, err := c.Stats("synthetic", "c1"); err == nil {
		t.Fatal("no histogram should be installed after a skipped side path")
	}
}

// Lane panics and stalls inside the server's side path: the scan completes,
// the stream is exact, and the loss is reported — retired lanes with a
// Degraded histogram whose skipped count covers the missing rows.
func TestScanLaneFaultsReportedHonestly(t *testing.T) {
	const rows = 8000
	want := storageBytes(t, rows)

	srv := server.NewForTest(server.Config{
		Faults:        faults.New(9, faults.Profile{faults.LanePanic: 0.3, faults.LaneStall: 0.2}),
		ShardLanes:    4,
		PagesPerFrame: 2,
	}, server.TestConfig{SideStallTimeout: 50 * time.Millisecond})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "c1", &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("stream bytes changed under lane faults")
	}
	if !sum.Degraded {
		t.Skipf("seed 9 injected no effective lane faults (retired=%d)", sum.LanesRetired)
	}
	if sum.LanesRetired == 0 {
		t.Fatal("degraded lane-fault scan retired no lanes")
	}
	if sum.Refreshed {
		st, err := c.Stats("synthetic", "c1")
		if err != nil {
			t.Fatal(err)
		}
		if !st.Histogram.Degraded {
			t.Fatal("installed histogram not marked Degraded")
		}
		if st.Histogram.Skipped == 0 {
			t.Fatal("degraded histogram reports zero skipped tuples")
		}
		if uint64(st.Histogram.Skipped) != sum.SkippedTuples {
			t.Fatalf("histogram skipped %d != summary %d", st.Histogram.Skipped, sum.SkippedTuples)
		}
	}
	if srv.Metrics().LanesRetired == 0 {
		t.Fatal("metrics counted no retired lanes")
	}
}

// Injected side-copy truncation: pages lost between the wire and the side
// path are quarantined; the wire itself is unaffected.
func TestScanTruncationQuarantinesSideCopy(t *testing.T) {
	const rows = 5000
	want := storageBytes(t, rows)

	srv := server.New(server.Config{
		Faults:        faults.New(2, faults.Profile{faults.PageTruncate: 0.3}),
		PagesPerFrame: 2,
	})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := pipeClient(srv)
	defer c.Close()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "c1", &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("truncation of the side copy leaked into the wire stream")
	}
	if sum.Retries != 0 {
		t.Fatalf("side-copy truncation should not force client retries, got %d", sum.Retries)
	}
	if !sum.Degraded || sum.QuarantinedPages == 0 {
		t.Fatalf("summary %+v: want Degraded with quarantined pages", sum)
	}
}

// Satellite: a slow-but-live client must not trip the write deadline. The
// deadline bounds lack of progress, not total transfer time — a reader
// draining steadily for much longer than WriteTimeout still gets its scan.
func TestSlowClientOutlivesWriteDeadline(t *testing.T) {
	const rows = 20000
	want := storageBytes(t, rows)

	srv := server.NewForTest(server.Config{}, server.TestConfig{WriteTimeout: 80 * time.Millisecond})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc, cc := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(sc); close(done) }()

	// Speak the protocol by hand so the read pace is ours: drain slowly and
	// steadily, taking several times WriteTimeout overall.
	req := server.EncodeScanRequest(server.ScanRequest{Table: "synthetic", Column: "c1"})
	var reqBuf bytes.Buffer
	if err := server.WriteFrame(&reqBuf, server.FrameScan, req); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write(reqBuf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Decoding is linear in what has arrived (one FrameReader over the slow
	// reader), so the gap between two reads is the pause and nothing else: a
	// harness that re-parsed the whole stream after every read could itself
	// outlast WriteTimeout under -race and fail the scan it was pacing.
	start := time.Now()
	fr := server.NewFrameReader(slowReader{cc})
	var pages []byte
	for finished := false; !finished; {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("slow read after %d page bytes: %v", len(pages), err)
		}
		switch f.Type {
		case server.FramePagesCk:
			n := len(f.Payload) / (page.Size + server.PageChecksumSize)
			pages = append(pages, f.Payload[:n*page.Size]...)
		case server.FrameScanEnd:
			finished = true
		case server.FrameError:
			t.Fatalf("server error frame: %v", server.DecodeError(f.Payload))
		default:
			t.Fatalf("unexpected frame type %d", f.Type)
		}
	}
	if !bytes.Equal(pages, want) {
		t.Fatal("slow-client stream differs from storage")
	}
	if elapsed := time.Since(start); elapsed < 160*time.Millisecond {
		t.Skipf("transfer finished in %v — too fast to exercise the deadline", elapsed)
	}
	cc.Close()
	<-done
}

// slowReader drains a connection slowly and steadily: at most 24 KiB a read
// and a pause after each — the slowness under test.
type slowReader struct{ conn net.Conn }

func (r slowReader) Read(p []byte) (int, error) {
	if len(p) > 24<<10 {
		p = p[:24<<10]
	}
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := r.conn.Read(p)
	time.Sleep(5 * time.Millisecond)
	return n, err
}

// Negative control for the deadline: a reader that stops draining entirely
// must be cut loose about one WriteTimeout after progress stops, freeing
// the serving goroutine.
func TestDeadClientStillReaped(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := server.NewForTest(server.Config{}, server.TestConfig{WriteTimeout: 100 * time.Millisecond})
	if err := srv.Register(testRelation(20000)); err != nil {
		t.Fatal(err)
	}

	sc, cc := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(sc); close(done) }()

	req := server.EncodeScanRequest(server.ScanRequest{Table: "synthetic", Column: "c1"})
	var reqBuf bytes.Buffer
	if err := server.WriteFrame(&reqBuf, server.FrameScan, req); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write(reqBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Read one chunk, then go silent.
	buf := make([]byte, 4096)
	if _, err := cc.Read(buf); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not abandon a stalled reader")
	}
	cc.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wantLeakFree(t, base)
}
