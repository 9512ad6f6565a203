package client_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/hist"
	"streamhist/internal/page"
	"streamhist/internal/server"
)

// fakeServer runs fn as the server side of a pipe and returns a connected
// client. fn gets the raw server-side conn to speak whatever (mis)behaviour
// the test needs.
func fakeServer(t *testing.T, fn func(conn net.Conn)) *client.Client {
	t.Helper()
	sc, cc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		fn(sc)
	}()
	t.Cleanup(func() {
		cc.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("fake server did not exit")
		}
	})
	c := client.New(cc)
	c.SetTimeout(5 * time.Second)
	return c
}

// readRequest consumes one request frame on the fake server side.
func readRequest(t *testing.T, conn net.Conn) server.Frame {
	t.Helper()
	f, err := server.ReadFrame(conn)
	if err != nil {
		t.Errorf("fake server read: %v", err)
	}
	return f
}

// TestStatsCorruptHistogramSurfacesError is the wire-corruption satellite:
// a truncated histogram payload must surface as an error wrapping
// hist.ErrCorruptHistogram — never as garbage buckets.
func TestStatsCorruptHistogramSurfacesError(t *testing.T) {
	good, err := (&hist.Histogram{
		Kind:          hist.Compressed,
		Total:         10,
		DistinctTotal: 3,
		Buckets:       []hist.Bucket{{Low: 1, High: 9, Count: 10, Distinct: 3}},
	}).MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	corruptions := map[string][]byte{
		"truncated": good[:len(good)-5],
		"bad magic": append([]byte{0xDE, 0xAD}, good[2:]...),
		"empty":     nil,
	}
	for name, raw := range corruptions {
		t.Run(name, func(t *testing.T) {
			c := fakeServer(t, func(conn net.Conn) {
				readRequest(t, conn)
				payload := server.EncodeStatsResult(server.StatsResult{
					RowCount: 10, NDistinct: 3, Histogram: raw,
				})
				server.WriteFrame(conn, server.FrameStatsResult, payload)
			})
			st, err := c.Stats("t", "c")
			if err == nil {
				t.Fatalf("corrupt histogram decoded into %+v", st.Histogram)
			}
			if !errors.Is(err, hist.ErrCorruptHistogram) {
				t.Fatalf("error does not wrap hist.ErrCorruptHistogram: %v", err)
			}
		})
	}
}

func TestStatsIntactHistogramRoundTrips(t *testing.T) {
	want := &hist.Histogram{
		Kind:          hist.Compressed,
		Total:         42,
		DistinctTotal: 7,
		Frequent:      []hist.FrequentValue{{Value: 3, Count: 12}},
		Buckets:       []hist.Bucket{{Low: 0, High: 30, Count: 30, Distinct: 6}},
	}
	raw, _ := want.MarshalBinary()
	c := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		server.WriteFrame(conn, server.FrameStatsResult,
			server.EncodeStatsResult(server.StatsResult{RowCount: 42, NDistinct: 7, Version: 3, Histogram: raw}))
	})
	st, err := c.Stats("t", "c")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !st.Histogram.Equal(want) || st.Version != 3 {
		t.Fatalf("stats changed across the wire: %+v", st)
	}
}

func TestScanServerErrorFrame(t *testing.T) {
	c := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		server.WriteFrame(conn, server.FrameError, server.EncodeError(server.ErrUnknownTable))
	})
	if _, err := c.Scan("ghost", "c", io.Discard); !errors.Is(err, server.ErrUnknownTable) {
		t.Fatalf("got %v, want ErrUnknownTable", err)
	}
}

// Regression: with a redial installed, a server rejection (unknown table,
// bad resume offset) used to be retried like a transport failure — the same
// doomed request re-sent through the whole backoff budget. It must surface
// immediately, without a single reconnect.
func TestScanServerRejectionNotRetried(t *testing.T) {
	c := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		server.WriteFrame(conn, server.FrameError, server.EncodeError(server.ErrUnknownTable))
	})
	var redials int
	c.SetRedial(func() (net.Conn, error) {
		redials++
		return nil, errors.New("no second server to dial")
	})
	_, err := c.Scan("ghost", "c", io.Discard)
	if !errors.Is(err, server.ErrUnknownTable) {
		t.Fatalf("got %v, want ErrUnknownTable", err)
	}
	if redials != 0 {
		t.Fatalf("terminal server rejection triggered %d redials", redials)
	}
}

// A peer at another protocol version is not a transport failure: the first
// reply header names the mismatch, the scan (or any request) fails with an
// ErrBadFrame printing both versions, and an installed redial is never used
// — the next connection would speak the same wrong version.
func TestVersionMismatchIsTerminal(t *testing.T) {
	c := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		reply := server.AppendFrame(nil, server.FrameScanEnd, server.EncodeScanSummary(server.ScanSummary{}))
		reply[3] = server.ProtocolVersion + 1
		conn.Write(reply)
	})
	var redials int
	c.SetRedial(func() (net.Conn, error) {
		redials++
		return nil, errors.New("no second server to dial")
	})
	_, err := c.Scan("t", "c", io.Discard)
	want := fmt.Sprintf("frame is version %d, this build speaks version %d", server.ProtocolVersion+1, server.ProtocolVersion)
	if !errors.Is(err, server.ErrBadFrame) || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want ErrBadFrame naming both versions", err)
	}
	if redials != 0 {
		t.Fatalf("version mismatch triggered %d redials", redials)
	}
}

func TestScanByteCountMismatchDetected(t *testing.T) {
	c := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		img := bytes.Repeat([]byte{1}, page.Size)
		server.WriteFrame(conn, server.FramePagesCk,
			binary.LittleEndian.AppendUint32(img, page.Checksum(img)))
		// Lie about how much was sent.
		server.WriteFrame(conn, server.FrameScanEnd,
			server.EncodeScanSummary(server.ScanSummary{Pages: 1, Bytes: 50}))
	})
	if _, err := c.Scan("t", "c", io.Discard); err == nil {
		t.Fatal("byte-count mismatch not detected")
	}
}

func TestScanRejectsUnexpectedFrame(t *testing.T) {
	c := fakeServer(t, func(conn net.Conn) {
		readRequest(t, conn)
		server.WriteFrame(conn, server.FrameTables, server.EncodeTableList(nil))
	})
	if _, err := c.Scan("t", "c", io.Discard); err == nil {
		t.Fatal("out-of-protocol frame accepted mid-scan")
	}
}
