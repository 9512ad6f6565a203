package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/stream"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

// testRelation builds a deterministic Zipf-skewed 4-column relation.
func testRelation(rows int) *table.Relation {
	return tpch.Synthetic(rows, 4, 512, 1.1, 7)
}

// wantLeakFree fails the test if the goroutine count does not settle back
// to the baseline captured before the server existed.
func wantLeakFree(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// startServer runs srv on a loopback listener and returns its address plus
// a shutdown func that cancels the context and waits for Serve to return.
func startServer(t *testing.T, srv *server.Server) (addr string, shutdown func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("Serve did not return within 10s of cancel")
		}
	}
}

// TestConcurrentScansAndStats is the acceptance-criteria integration test:
// a loopback server, several concurrent client scans, then a STATS call.
// Every client must receive the exact bytes stream.NewPagesReader yields,
// the catalog histogram must equal the in-process DataPath result for the
// same relation and column, and shutdown must be clean with no leaked
// goroutines.
func TestConcurrentScansAndStats(t *testing.T) {
	base := runtime.NumGoroutine()
	rel := testRelation(5000)

	srv := server.New(server.Config{DrainWorkers: 8})
	if err := srv.Register(rel); err != nil {
		t.Fatalf("register: %v", err)
	}
	addr, shutdown := startServer(t, srv)

	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatalf("reference stream: %v", err)
	}

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var got bytes.Buffer
			sum, err := c.Scan("synthetic", "c1", &got)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got.Bytes(), want) {
				errs <- errors.New("served pages differ from stream.NewPagesReader output")
				return
			}
			if int(sum.Pages) != len(want)/page.Size || sum.Bytes != uint64(len(want)) {
				errs <- errors.New("scan summary does not match the stream size")
				return
			}
			if sum.Rows != uint64(rel.NumRows()) {
				errs <- errors.New("side path binned the wrong number of rows")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The reference result: the same relation and column through the
	// in-process Figure 9 data path.
	dp, err := stream.NewDataPath(rel, "c1", stream.GigabitEthernet)
	if err != nil {
		t.Fatalf("data path: %v", err)
	}
	ref, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatalf("data path scan: %v", err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial for stats: %v", err)
	}
	st, err := c.Stats("synthetic", "c1")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	c.Close()
	if !st.Histogram.Equal(ref.Results.Compressed) {
		t.Fatalf("served histogram %v != data-path histogram %v", st.Histogram, ref.Results.Compressed)
	}
	if st.RowCount != int64(rel.NumRows()) || st.NDistinct != ref.Results.Compressed.DistinctTotal {
		t.Fatalf("stats metadata mismatch: %+v", st)
	}
	// The server's own catalog must hold the same statistic.
	if cs := srv.Catalog().Get("synthetic", "c1"); cs == nil || !cs.Histogram.Equal(ref.Results.Compressed) {
		t.Fatal("catalog histogram does not equal the single-scan histogram")
	}

	m := srv.Metrics()
	if m.ScansServed != n {
		t.Fatalf("ScansServed = %d, want %d", m.ScansServed, n)
	}
	if m.BytesMoved != int64(n*len(want)) {
		t.Fatalf("BytesMoved = %d, want %d", m.BytesMoved, n*len(want))
	}
	if m.HistogramsRefreshed < 1 || m.HistogramsRefreshed > n {
		t.Fatalf("HistogramsRefreshed = %d, want 1..%d", m.HistogramsRefreshed, n)
	}
	if m.HistogramsRefreshed+m.SideSkipped != n {
		t.Fatalf("refreshed (%d) + skipped (%d) != scans (%d)", m.HistogramsRefreshed, m.SideSkipped, n)
	}
	if m.AccelCycles <= 0 {
		t.Fatal("no accelerator cycles accounted")
	}

	// Leave an idle connection open: graceful shutdown must reap it.
	idle, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("idle dial: %v", err)
	}
	defer idle.Close()
	if err := shutdown(); !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	wantLeakFree(t, base)
}

func TestRequestErrors(t *testing.T) {
	srv := server.New(server.Config{})
	if err := srv.Register(testRelation(100)); err != nil {
		t.Fatalf("register: %v", err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Scan("nope", "c0", io.Discard); !errors.Is(err, server.ErrUnknownTable) {
		t.Fatalf("unknown table: got %v", err)
	}
	if _, err := c.Scan("synthetic", "nope", io.Discard); !errors.Is(err, server.ErrUnknownColumn) {
		t.Fatalf("unknown column: got %v", err)
	}
	if _, err := c.Stats("synthetic", "c0"); !errors.Is(err, server.ErrNoStats) {
		t.Fatalf("stats before any scan: got %v", err)
	}
	// The connection must survive request-level errors.
	if _, err := c.Scan("synthetic", "c0", io.Discard); err != nil {
		t.Fatalf("scan after errors: %v", err)
	}
	if _, err := c.Stats("synthetic", "c0"); err != nil {
		t.Fatalf("stats after scan: %v", err)
	}
}

func TestScanWithoutColumnMovesDataOnly(t *testing.T) {
	rel := testRelation(200)
	srv := server.New(server.Config{})
	if err := srv.Register(rel); err != nil {
		t.Fatalf("register: %v", err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "", &got)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if sum.Refreshed || sum.Rows != 0 {
		t.Fatalf("column-less scan refreshed statistics: %+v", sum)
	}
	want, _ := io.ReadAll(stream.NewPagesReader(rel))
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("column-less scan bytes differ from storage")
	}
	if srv.Catalog().StatsColumns("synthetic") != nil {
		t.Fatal("catalog gained stats from a column-less scan")
	}
}

func TestServeConnOverPipe(t *testing.T) {
	base := runtime.NumGoroutine()
	rel := testRelation(300)
	srv := server.New(server.Config{})
	if err := srv.Register(rel); err != nil {
		t.Fatalf("register: %v", err)
	}
	sc, cc := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(sc)
		close(done)
	}()
	c := client.New(cc)
	var got bytes.Buffer
	if _, err := c.Scan("synthetic", "c2", &got); err != nil {
		t.Fatalf("scan over pipe: %v", err)
	}
	want, _ := io.ReadAll(stream.NewPagesReader(rel))
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("pipe scan bytes differ from storage")
	}
	tables, err := c.Tables()
	if err != nil {
		t.Fatalf("tables: %v", err)
	}
	if len(tables) != 1 || tables[0].Name != "synthetic" || tables[0].Rows != 300 {
		t.Fatalf("table listing: %+v", tables)
	}
	if len(tables[0].StatsColumns) != 1 || tables[0].StatsColumns[0] != "c2" {
		t.Fatalf("stats columns after scan: %+v", tables[0].StatsColumns)
	}
	c.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after client close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wantLeakFree(t, base)
}

// A request framed at another protocol version is answered exactly once —
// a FrameError naming the version found and the version spoken — and then
// the connection is closed; nothing is served at the wrong version and the
// server keeps serving everyone else.
func TestVersionMismatchAnsweredOnceThenClosed(t *testing.T) {
	srv := server.New(server.Config{})
	if err := srv.Register(testRelation(100)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc, cc := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(sc); close(done) }()
	defer cc.Close()

	req := server.AppendFrame(nil, server.FrameScan,
		server.EncodeScanRequest(server.ScanRequest{Table: "synthetic", Column: "c1"}))
	req[3] = 0 // the header every peer wrote before the byte meant anything
	go cc.Write(append(req, server.AppendFrame(nil, server.FrameList, nil)...))

	cc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := server.ReadFrame(cc)
	if err != nil {
		t.Fatalf("reading the server's answer: %v", err)
	}
	if f.Type != server.FrameError {
		t.Fatalf("answer is frame type %d, want FrameError", f.Type)
	}
	rerr := server.DecodeError(f.Payload)
	if !errors.Is(rerr, server.ErrBadRequest) ||
		!strings.Contains(rerr.Error(), "frame is version 0, this build speaks version 1") {
		t.Fatalf("answer = %v, want ErrBadRequest naming versions 0 and 1", rerr)
	}
	if f, err := server.ReadFrame(cc); err != io.EOF {
		t.Fatalf("after the one answer: frame %+v, err %v, want io.EOF", f, err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the mismatched connection open")
	}

	c := pipeClient(srv)
	defer c.Close()
	if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
		t.Fatalf("scan at the right version after a mismatched peer: %v", err)
	}
}

// Column names cross the wire under the same length bound as table names;
// Register refuses one the protocol could never carry, instead of letting it
// poison every LIST reply.
func TestRegisterRejectsOverlongColumnName(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()

	long := strings.Repeat("x", 257)
	rel := table.NewRelation("wide", table.NewSchema(
		table.Column{Name: "ok", Type: table.Int64},
		table.Column{Name: long, Type: table.Int64},
	))
	rel.Append(table.Row{1, 2})
	err := srv.Register(rel)
	if err == nil || !strings.Contains(err.Error(), "exceeds 256 bytes") {
		t.Fatalf("Register with a 257-byte column name: %v", err)
	}

	// At the bound it registers, lists and scans.
	rel = table.NewRelation("wide", table.NewSchema(table.Column{Name: long[:256], Type: table.Int64}))
	rel.Append(table.Row{1})
	if err := srv.Register(rel); err != nil {
		t.Fatalf("Register with a 256-byte column name: %v", err)
	}
	c := pipeClient(srv)
	defer c.Close()
	tables, err := c.Tables()
	if err != nil || len(tables) != 1 || tables[0].Columns[0] != long[:256] {
		t.Fatalf("LIST with a 256-byte column name: %+v, %v", tables, err)
	}
	if _, err := c.Scan("wide", long[:256], io.Discard); err != nil {
		t.Fatalf("scan of the 256-byte column: %v", err)
	}
}

func TestRegisterReplaceMarksStatsStale(t *testing.T) {
	rel := testRelation(100)
	srv := server.New(server.Config{})
	if err := srv.Register(rel); err != nil {
		t.Fatalf("register: %v", err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Scan("synthetic", "c0", io.Discard); err != nil {
		t.Fatalf("scan: %v", err)
	}
	st, err := c.Stats("synthetic", "c0")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Version != 0 {
		t.Fatalf("fresh stats version = %d, want 0", st.Version)
	}

	// Replace the relation (a bulk reload): old stats must read as stale
	// until the next served scan refreshes them.
	rel2 := tpch.Synthetic(150, 4, 512, 1.1, 99)
	if err := srv.Register(rel2); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if !srv.Catalog().Stale("synthetic", "c0") {
		t.Fatal("stats not stale after table replacement")
	}
	if _, err := c.Scan("synthetic", "c0", io.Discard); err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if srv.Catalog().Stale("synthetic", "c0") {
		t.Fatal("served scan did not freshen the replaced table's stats")
	}
	st2, err := c.Stats("synthetic", "c0")
	if err != nil {
		t.Fatalf("stats after rescan: %v", err)
	}
	if st2.Version != 1 || st2.RowCount != 150 {
		t.Fatalf("refreshed stats: version=%d rows=%d, want 1/150", st2.Version, st2.RowCount)
	}
}

// TestShardedSidePathEqualsSerial pins the merge-correctness property at
// the serving layer: with the side path explicitly fanned out across four
// lanes (more than this host may have cores), concurrent served scans must
// install exactly the histogram the serial in-process DataPath computes,
// and the metrics must report the shard configuration and the fan-in merge
// work.
func TestShardedSidePathEqualsSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	rel := testRelation(4000)

	srv := server.New(server.Config{DrainWorkers: 8, ShardLanes: 4})
	if err := srv.Register(rel); err != nil {
		t.Fatalf("register: %v", err)
	}
	addr, shutdown := startServer(t, srv)

	const n = 5
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sum, err := c.Scan("synthetic", "c2", io.Discard)
			if err != nil {
				errs <- err
				return
			}
			if sum.Rows != uint64(rel.NumRows()) {
				errs <- errors.New("sharded side path binned the wrong number of rows")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	dp, err := stream.NewDataPath(rel, "c2", stream.GigabitEthernet)
	if err != nil {
		t.Fatalf("data path: %v", err)
	}
	ref, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatalf("data path scan: %v", err)
	}
	cs := srv.Catalog().Get("synthetic", "c2")
	if cs == nil || !cs.Histogram.Equal(ref.Results.Compressed) {
		t.Fatal("sharded catalog histogram does not equal the serial data-path histogram")
	}

	m := srv.Metrics()
	if m.ShardLanes != 4 {
		t.Fatalf("ShardLanes = %d, want 4", m.ShardLanes)
	}
	// Every refreshed scan merges ShardLanes-1 lane states.
	if want := m.HistogramsRefreshed * 3; m.LaneMerges != want {
		t.Fatalf("LaneMerges = %d, want %d (refreshed=%d)", m.LaneMerges, want, m.HistogramsRefreshed)
	}
	if m.HistogramsRefreshed == 0 || m.AccelCycles <= 0 {
		t.Fatalf("no sharded refresh accounted: %+v", m)
	}

	if err := shutdown(); err != server.ErrServerClosed {
		t.Fatalf("shutdown: %v", err)
	}
	wantLeakFree(t, base)
}

// TestShardLanesOneMatchesMultiLane checks the lane count is functionally
// invisible: one lane and many lanes must install identical statistics for
// the same relation.
func TestShardLanesOneMatchesMultiLane(t *testing.T) {
	rel := testRelation(3000)
	install := func(lanes int) *server.Server {
		srv := server.New(server.Config{ShardLanes: lanes})
		if err := srv.Register(rel); err != nil {
			t.Fatalf("register: %v", err)
		}
		addr, shutdown := startServer(t, srv)
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := c.Scan("synthetic", "c3", io.Discard); err != nil {
			t.Fatalf("scan: %v", err)
		}
		c.Close()
		if err := shutdown(); err != server.ErrServerClosed {
			t.Fatalf("shutdown: %v", err)
		}
		return srv
	}
	one := install(1).Catalog().Get("synthetic", "c3")
	eight := install(8).Catalog().Get("synthetic", "c3")
	if one == nil || eight == nil {
		t.Fatal("missing catalog entries")
	}
	if !one.Histogram.Equal(eight.Histogram) {
		t.Fatal("1-lane and 8-lane scans installed different histograms")
	}
	if one.NDistinct != eight.NDistinct || one.RowCount != eight.RowCount {
		t.Fatal("1-lane and 8-lane scans installed different metadata")
	}
}

// Register refuses a relation that would make the LIST reply undecodable —
// a 4 097th table, a 4 097-column schema, or a reply over MaxPayload — so
// Tables() keeps working however many relations were offered.
func TestRegisterKeepsListDecodable(t *testing.T) {
	const limit = 4096
	oneRow := func(name string, cols int, colName string) *table.Relation {
		schema := &table.Schema{}
		for i := 0; i < cols; i++ {
			schema.Columns = append(schema.Columns, table.Column{Name: fmt.Sprintf("%s%d", colName, i), Type: table.Int64})
		}
		rel := table.NewRelation(name, schema)
		rel.Append(make(table.Row, cols))
		return rel
	}
	wantRefused := func(err error, limit int) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(limit)) {
			t.Fatalf("Register err = %v, want a refusal naming the limit %d", err, limit)
		}
	}

	srv := server.New(server.Config{})
	defer srv.Close()
	for i := 0; i < limit; i++ {
		if err := srv.Register(oneRow(fmt.Sprintf("t%d", i), 1, "c")); err != nil {
			t.Fatalf("table %d: %v", i+1, err)
		}
	}
	wantRefused(srv.Register(oneRow("one-too-many", 1, "c")), limit)
	// Replacing a registered table adds none.
	if err := srv.Register(oneRow("t0", 2, "c")); err != nil {
		t.Fatalf("replace at the limit: %v", err)
	}
	c := pipeClient(srv)
	defer c.Close()
	tables, err := c.Tables()
	if err != nil {
		t.Fatalf("tables at the limit: %v", err)
	}
	if len(tables) != limit {
		t.Fatalf("listed %d tables, registered %d", len(tables), limit)
	}

	fresh := server.New(server.Config{})
	defer fresh.Close()
	wantRefused(fresh.Register(oneRow("wide", limit+1, "c")), limit)
	// 2 100 columns of 250-byte names fit the count but, listed twice, not
	// the payload.
	wantRefused(fresh.Register(oneRow("long", 2100, strings.Repeat("n", 246))), server.MaxPayload)
}
