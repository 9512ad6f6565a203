package server_test

import (
	"bytes"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"streamhist/internal/page"
	"streamhist/internal/server"
)

// deadlineTransports are the two connections the write-deadline bound is held
// on: net.Pipe, where the writer's progress is exactly what the reader takes,
// and loopback TCP, where kernel buffers stand between the two. Each returns
// the client end and a channel closed when the server has let go of its end.
var deadlineTransports = []struct {
	name string
	dial func(t *testing.T, srv *server.Server) (net.Conn, <-chan struct{})
}{
	{"pipe", func(t *testing.T, srv *server.Server) (net.Conn, <-chan struct{}) {
		sc, cc := net.Pipe()
		done := make(chan struct{})
		go func() { srv.ServeConn(sc); close(done) }()
		return cc, done
	}},
	{"tcp", func(t *testing.T, srv *server.Server) (net.Conn, <-chan struct{}) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// Small socket buffers keep what the kernel absorbs for a stalled
		// reader to a few windows' worth, and the receive window opening in
		// small steps: the pace the server sees is then the reader's, not
		// loopback's 64 KiB segments. The receive buffer is sized before the
		// handshake, which advertises the window it allows.
		d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 16<<10)
			}); err != nil {
				return err
			}
			return serr
		}}
		cc, err := d.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.(*net.TCPConn).SetWriteBuffer(16 << 10); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { srv.ServeConn(sc); close(done) }()
		return cc, done
	}},
}

// pacedReader drains a connection at a fixed average rate: per bytes every
// tick, scheduled against the clock so a late wake-up catches up rather than
// slowing the reader further.
type pacedReader struct {
	conn   net.Conn
	per    int
	tick   time.Duration
	next   time.Time
	budget int
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if r.budget == 0 {
		time.Sleep(time.Until(r.next))
		r.next = r.next.Add(r.tick)
		r.budget = r.per
	}
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := r.conn.Read(p[:min(len(p), r.budget)])
	r.budget -= n
	return n, err
}

// sendScan writes one scan request on conn.
func sendScan(t *testing.T, conn net.Conn, column string) {
	t.Helper()
	var req bytes.Buffer
	if err := server.WriteFrame(&req, server.FrameScan,
		server.EncodeScanRequest(server.ScanRequest{Table: "synthetic", Column: column})); err != nil {
		t.Fatal(err)
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestWriteDeadlineCutsSlowAndDeadReaders holds the write path to its bound
// from below: a reader draining a quarter of deadlineChunk (16 KiB) per
// WriteTimeout, and one that stops dead after its first read, must both be
// cut within two WriteTimeouts — the first window may still be credited with
// what the kernel had room for, the second cannot be — plus half of one for
// the scan to start and fill the buffers. The serving goroutine and the
// side path must be gone afterwards.
func TestWriteDeadlineCutsSlowAndDeadReaders(t *testing.T) {
	const wt = 200 * time.Millisecond
	for _, tr := range deadlineTransports {
		for _, rc := range []struct {
			name string
			per  int // bytes a tick; 0 is a reader that stops after one read
		}{{"slow", 1 << 10}, {"dead", 0}} {
			t.Run(tr.name+"/"+rc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				srv := server.NewForTest(server.Config{}, server.TestConfig{WriteTimeout: wt})
				if err := srv.Register(testRelation(20000)); err != nil {
					t.Fatal(err)
				}
				// Encode the relation now, outside the timed window.
				if _, _, _, err := srv.WireForm("synthetic"); err != nil {
					t.Fatal(err)
				}
				cc, done := tr.dial(t, srv)
				defer cc.Close()
				start := time.Now()
				sendScan(t, cc, "c1")
				go func() {
					buf := make([]byte, 4<<10)
					if rc.per == 0 {
						cc.Read(buf)
						return
					}
					r := &pacedReader{conn: cc, per: rc.per, tick: wt / 4, next: time.Now()}
					for {
						if _, err := r.Read(buf); err != nil {
							return
						}
					}
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("server did not cut a reader below the minimum rate")
				}
				if elapsed, limit := time.Since(start), 2*wt+wt/2; elapsed > limit {
					t.Fatalf("reader cut after %v, want within %v", elapsed, limit)
				}
				cc.Close()
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				wantLeakFree(t, base)
			})
		}
	}
}

// TestWriteDeadlineKeepsSteadyReader holds the bound from above: a reader
// draining about twice deadlineChunk per WriteTimeout gets a whole scan at
// the default frame size, although writing one frame spans many deadlines,
// and the pages it receives are the storage bytes.
func TestWriteDeadlineKeepsSteadyReader(t *testing.T) {
	const wt = 100 * time.Millisecond
	const rows = 17000
	want := storageBytes(t, rows)
	if pages := len(want) / page.Size; pages <= 64 {
		t.Fatalf("%d pages: the scan must span more than one default frame", pages)
	}
	for _, tr := range deadlineTransports {
		t.Run(tr.name, func(t *testing.T) {
			srv := server.NewForTest(server.Config{}, server.TestConfig{WriteTimeout: wt})
			if err := srv.Register(testRelation(rows)); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cc, done := tr.dial(t, srv)
			sendScan(t, cc, "c1")

			fr := server.NewFrameReader(&pacedReader{conn: cc, per: 8 << 10, tick: wt / 4, next: time.Now()})
			var got []byte
			firstFrame := 0
			for finished := false; !finished; {
				f, err := fr.Next()
				if err != nil {
					t.Fatalf("steady read after %d page bytes: %v", len(got), err)
				}
				switch f.Type {
				case server.FramePagesCk:
					n := len(f.Payload) / (page.Size + server.PageChecksumSize)
					if firstFrame == 0 {
						firstFrame = n
					}
					got = append(got, f.Payload[:n*page.Size]...)
				case server.FrameScanEnd:
					sum, err := server.DecodeScanSummary(f.Payload)
					if err != nil {
						t.Fatal(err)
					}
					if !sum.Refreshed || sum.Degraded {
						t.Fatalf("steady reader's scan did not refresh cleanly: %+v", sum)
					}
					finished = true
				default:
					t.Fatalf("unexpected frame type %d", f.Type)
				}
			}
			if firstFrame < 64 {
				t.Fatalf("the default frame carries %d pages, want the 64 this bound is stated for", firstFrame)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("steady reader's pages differ from storage")
			}
			cc.Close()
			<-done
		})
	}
}
