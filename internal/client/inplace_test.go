package client_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

// TestStatsSurvivesNextScan guards the aliasing rule of the in-place frame
// reader: only page payloads may alias its buffer. A Stats result (histogram
// and sketch blocks) and a Tables result decoded before a full scan must read
// the same after that scan has run every one of its frames through the
// buffer they were received in.
func TestStatsSurvivesNextScan(t *testing.T) {
	rel := tpch.Synthetic(20000, 4, 512, 1.1, 7)
	srv := server.New(server.Config{ShardLanes: 2})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *client.Client {
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		return client.New(cc)
	}
	c := dial()
	defer c.Close()
	if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats("synthetic", "c1")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	// A raw scan: the catalog entry does not move, the buffer does.
	if _, err := c.Scan("synthetic", "", io.Discard); err != nil {
		t.Fatal(err)
	}

	ref := dial()
	defer ref.Close()
	wantSt, err := ref.Stats("synthetic", "c1")
	if err != nil {
		t.Fatal(err)
	}
	wantTables, err := ref.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Histogram.Equal(wantSt.Histogram) {
		t.Fatal("histogram decoded before the scan changed under it")
	}
	got, err := sketch.EncodeBlocks(st.Sketches)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.EncodeBlocks(wantSt.Sketches)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatal("sketch blocks decoded before the scan changed under it")
	}
	if !reflect.DeepEqual(tables, wantTables) {
		t.Fatalf("table list changed under the scan: %+v, want %+v", tables, wantTables)
	}
}

// cannedConn replays a recorded reply from memory and swallows requests.
type cannedConn struct {
	wire []byte
	r    bytes.Reader
}

func (c *cannedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *cannedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// TestScanAllocsPerFrame scans the benchmark relation's 1 575 pages from a
// canned connection at every frame size from 16 pages (99 frames) to the
// largest that fits MaxPayload (127 pages, 13 frames): receiving, verifying
// and sinking them must cost a fixed number of allocations per scan, the same
// at every frame size, none per frame.
func TestScanAllocsPerFrame(t *testing.T) {
	const pages = 1575
	img := make([]byte, page.Size)
	perScan := -1.0
	for _, ppf := range []int{16, 32, 64, 127} {
		var wire []byte
		for off := 0; off < pages; off += ppf {
			n := min(ppf, pages-off)
			var payload []byte
			var trailer []byte
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(img, uint64(off+i))
				payload = append(payload, img...)
				trailer = binary.LittleEndian.AppendUint32(trailer, page.Checksum(img))
			}
			wire = server.AppendFrame(wire, server.FramePagesCk, append(payload, trailer...))
		}
		wire = server.AppendFrame(wire, server.FrameScanEnd,
			server.EncodeScanSummary(server.ScanSummary{Pages: pages, Bytes: pages * page.Size}))

		conn := &cannedConn{wire: wire}
		c := client.New(conn)
		scan := func() {
			conn.r.Reset(conn.wire)
			sum, err := c.Scan("lineitem", "", io.Discard)
			if err != nil || sum.Pages != pages {
				t.Fatalf("ppf %d: scan: %+v, %v", ppf, sum, err)
			}
		}
		scan() // grows the receive buffer to the frame size, once
		allocs := testing.AllocsPerRun(10, scan)
		if allocs > 20 || perScan >= 0 && allocs != perScan {
			t.Fatalf("ppf %d: %.0f allocations per scan of %d frames (%.0f at 16 pages); the receive path must not allocate per frame",
				ppf, allocs, (pages+ppf-1)/ppf, perScan)
		}
		if perScan < 0 {
			perScan = allocs
		}
	}
}
