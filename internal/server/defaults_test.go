package server_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamhist/internal/server"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// The served defaults, pinned on the wire: one column scan and one Stats read
// against a Config that sets nothing but ShardLanes, recorded as the raw reply
// bytes and compared by SHA-256 with a committed golden. The scan reply holds
// the frame size, the page images and checksums, the simulated cycles and the
// binner clock that prices them; the Stats reply holds the Compressed
// histogram's T and B and the default sketch chain. Moving any default moves a
// byte. A server built by NewForTest with the zero TestConfig must serve the
// same bytes: the settings only tests change default to production's.
func TestDefaultsOnTheWire(t *testing.T) {
	cfg := server.Config{ShardLanes: 2}
	golden := filepath.Join("testdata", "defaults.golden")
	for _, tc := range []struct {
		name string
		new  func() *server.Server
	}{
		{"New", func() *server.Server { return server.New(cfg) }},
		{"NewForTest", func() *server.Server { return server.NewForTest(cfg, server.TestConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.new()
			if err := srv.Register(testRelation(40000)); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			sc, cc := net.Pipe()
			go srv.ServeConn(sc)
			defer cc.Close()

			req := server.ScanRequest{Table: "synthetic", Column: "c1"}
			scan := rawReply(t, cc, server.FrameScan, req, server.FrameScanEnd)
			stats := rawReply(t, cc, server.FrameStats, req, server.FrameStatsResult)
			got := fmt.Sprintf("scan %x\nstats %x\n", sha256.Sum256(scan), sha256.Sum256(stats))

			if *update && tc.name == "New" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("served defaults moved on the wire (%d-byte scan reply, %d-byte stats reply):\ngot\n%swant\n%s",
					len(scan), len(stats), got, want)
			}
		})
	}
}

// rawReply sends one request frame and returns every byte of the reply up to
// and including the frame of type last.
func rawReply(t *testing.T, conn net.Conn, typ uint8, req server.ScanRequest, last uint8) []byte {
	t.Helper()
	if _, err := conn.Write(server.AppendFrame(nil, typ, server.EncodeScanRequest(req))); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	r := io.TeeReader(conn, &raw)
	for {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := server.ReadFrame(r)
		if err != nil {
			t.Fatalf("reading reply to frame type %d: %v", typ, err)
		}
		if f.Type == server.FrameError {
			t.Fatalf("request type %d answered with an error: %v", typ, server.DecodeError(f.Payload))
		}
		if f.Type == last {
			return raw.Bytes()
		}
	}
}
