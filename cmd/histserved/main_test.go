package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/stream"
	"streamhist/internal/tpch"
)

// capture runs one client subcommand with os.Stdout redirected and returns
// what it printed beside its error. The subcommands print straight to the
// process's stdout, so tests in this package never run in parallel.
func capture(t *testing.T, run func([]string) error, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a failed read shows as missing output below
		printed <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

// liveServer serves one synthetic relation on a loopback port for the
// length of the test.
func liveServer(t *testing.T, rows int) (*server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{})
	if err := srv.Register(tpch.Synthetic(rows, 4, 512, 1.1, 7)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-served:
			if err != server.ErrServerClosed {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return within 10s of cancel")
		}
	})
	return srv, ln.Addr().String()
}

func wantOutput(t *testing.T, what, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("%s output lacks %q:\n%s", what, want, out)
		}
	}
}

// The client subcommands against a real server over loopback TCP: tables,
// stats before and after a scan, a scan into a file, a traced scan.
func TestClientCommands(t *testing.T) {
	const rows = 3000
	srv, addr := liveServer(t, rows)
	storage, err := io.ReadAll(stream.NewPagesReader(tpch.Synthetic(rows, 4, 512, 1.1, 7)))
	if err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, runTables, "-addr", addr)
	if err != nil {
		t.Fatalf("tables: %v", err)
	}
	wantOutput(t, "tables", out, "synthetic: 3000 rows, columns [c0 c1 c2 c3]")
	if strings.Contains(out, "stats:") {
		t.Errorf("tables lists statistics before any scan:\n%s", out)
	}

	if _, err := capture(t, runStats, "-addr", addr, "synthetic", "c1"); !errors.Is(err, server.ErrNoStats) {
		t.Fatalf("stats before any scan: %v, want ErrNoStats", err)
	}
	if _, err := capture(t, runScan, "-addr", addr, "ghost", "c1"); !errors.Is(err, server.ErrUnknownTable) {
		t.Fatalf("scan of an unknown table: %v, want ErrUnknownTable", err)
	}
	if _, err := capture(t, runScan, "-addr", addr, "synthetic"); err == nil {
		t.Fatal("scan with one positional argument did not fail")
	}

	file := filepath.Join(t.TempDir(), "pages.bin")
	out, err = capture(t, runScan, "-addr", addr, "-o", file, "synthetic", "c1")
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	wantOutput(t, "scan", out,
		fmt.Sprintf("scanned synthetic.c1: %d pages, %d bytes, %d rows binned", len(storage)/page.Size, len(storage), rows),
		"histogram refreshed as a side effect")
	if strings.Contains(out, "trace id") {
		t.Errorf("untraced scan printed a trace id:\n%s", out)
	}
	if got, err := os.ReadFile(file); err != nil || !bytes.Equal(got, storage) {
		t.Fatalf("scan -o wrote %d bytes (err %v), storage holds %d", len(got), err, len(storage))
	}

	out, err = capture(t, runScan, "-addr", addr, "-trace", "synthetic", "c2")
	if err != nil {
		t.Fatalf("scan -trace: %v", err)
	}
	wantOutput(t, "scan -trace", out, "scanned synthetic.c2:", "histogram refreshed")
	m := regexp.MustCompile(`trace id: ([0-9a-f]{16})\n`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("scan -trace printed no trace id:\n%s", out)
	}
	traceID, _ := strconv.ParseUint(m[1], 16, 64) // the pattern admits only hex
	// The trailer is written after the summary; the server stores it when
	// its connection loop gets to it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		at := srv.Obs().Tracer().Assemble(traceID)
		if at != nil && at.ClientSpans > 0 && at.ServerScans == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %016x did not assemble with both halves: %+v", traceID, at)
		}
		time.Sleep(5 * time.Millisecond)
	}

	out, err = capture(t, runStats, "-addr", addr, "synthetic", "c1")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	wantOutput(t, "stats", out, "synthetic.c1 (rows=3000 version=0)", "histogram:", "ndv:", "hll estimate", "heavy hitters:", "window:")

	out, err = capture(t, runTables, "-addr", addr)
	if err != nil {
		t.Fatalf("tables after scans: %v", err)
	}
	wantOutput(t, "tables", out, "(stats: [c1 c2])")
}

// Against a peer at another protocol version every subcommand fails on the
// first reply header with an error naming the version it found and the one it
// speaks — and scan, which installs a redial, does not go round again.
func TestClientCommandsNameBothVersionsOnMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			// One request header in (its version is ours, so ReadFrame takes
			// it), one reply out at the next version, then hang up.
			if _, err := server.ReadFrame(conn); err == nil {
				reply := server.AppendFrame(nil, server.FrameError, server.EncodeError(server.ErrBadRequest))
				reply[3] = server.ProtocolVersion + 1
				conn.Write(reply)
			}
			conn.Close()
		}
	}()

	addr := ln.Addr().String()
	want := fmt.Sprintf("frame is version %d, this build speaks version %d", server.ProtocolVersion+1, server.ProtocolVersion)
	for name, run := range map[string]func() error{
		"tables": func() error { _, err := capture(t, runTables, "-addr", addr); return err },
		"scan":   func() error { _, err := capture(t, runScan, "-addr", addr, "synthetic", "c1"); return err },
		"stats":  func() error { _, err := capture(t, runStats, "-addr", addr, "synthetic", "c1"); return err },
	} {
		before := conns.Load()
		err := run()
		if !errors.Is(err, server.ErrBadFrame) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s against a version-%d peer: %v, want ErrBadFrame saying %q", name, server.ProtocolVersion+1, err, want)
		}
		if n := conns.Load() - before; n != 1 {
			t.Errorf("%s opened %d connections, want 1", name, n)
		}
	}
}

// The serve synopsis in usage() lists exactly the flags `serve -h` prints. The
// -h output comes from a child run of this test binary, since the flag set
// exits the process after printing it.
func TestServeUsageListsEveryFlag(t *testing.T) {
	if os.Getenv("HISTSERVED_SERVE_HELP") == "1" {
		runServe([]string{"-h"})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeUsageListsEveryFlag$")
	cmd.Env = append(os.Environ(), "HISTSERVED_SERVE_HELP=1")
	help, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("serve -h: %v\n%s", err, help)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(string(help), -1) {
		flags = append(flags, m[1])
	}
	if len(flags) == 0 {
		t.Fatalf("serve -h printed no flags:\n%s", help)
	}

	synopsis, _, _ := strings.Cut(usageText, "histserved tables")
	_, synopsis, _ = strings.Cut(synopsis, "histserved serve")
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`\[(-[a-z-]+)`).FindAllStringSubmatch(synopsis, -1) {
		listed[m[1]] = true
	}
	for _, f := range flags {
		if !listed[f] {
			t.Errorf("usage() leaves out serve flag %s", f)
		}
		delete(listed, f)
	}
	for f := range listed {
		t.Errorf("usage() lists %s, which serve does not accept", f)
	}
}

// serve refuses sketch flags it could build a chain from but never serve: a
// precision the HyperLogLog would clamp, and a heavy-hitter or window block
// that alone outgrows one frame. Each is refused before any table is built
// or any port is opened, naming the flag.
func TestServeRefusesUnservableSketchFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sketch-ndv", "3"},
		{"-sketch-ndv", "17"},
		{"-sketch-k", strconv.Itoa(server.MaxPayload/24 + 1)},
		{"-sketch-window", strconv.Itoa(server.MaxPayload/16 + 1)},
		{"-sketch-window", "200000"},
		{"-sketch-window", "-1"},
	} {
		err := runServe(append([]string{"-addr", "127.0.0.1:-1"}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("serve %s: %v, want an error naming %s", strings.Join(args, " "), err, args[0])
		}
	}
}
