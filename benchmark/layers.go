package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/core"
	"streamhist/internal/dbms"
	"streamhist/internal/durable"
	"streamhist/internal/hist"
	"streamhist/internal/hwprof"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/stream"
)

// pagesPerFrame is server.Config's default; the frame replay packs frames
// the way handleScan does.
const pagesPerFrame = 16

// span is one benchmark-side span: a timed call into a layer's public
// functions, with the work counted at the same boundary.
type span struct {
	name       string
	id, parent int
	start, end time.Time
	count      int64 // pages, rows, bytes or calls, per unit
	unit       string
}

// spanLog keeps the spans of one run in memory; writeTrace dumps them as
// Chrome trace-event JSON when the run ends.
type spanLog struct {
	runID string
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{name: name, id: len(l.spans) + 1, parent: parent, start: time.Now()})
	return len(l.spans)
}

func (l *spanLog) end(id int, count int64, unit string) time.Duration {
	s := &l.spans[id-1]
	s.end, s.count, s.unit = time.Now(), count, unit
	return s.end.Sub(s.start)
}

func (l *spanLog) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.name, Cat: "benchmark", Ph: "X", PID: 1, TID: 1,
			TS:  float64(s.start.UnixNano()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"run_id": l.runID, "span_id": s.id, "parent_id": s.parent,
				"count": s.count, "unit": s.unit},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// recordingConn tees every byte the client reads, so one real scan leaves
// the exact wire bytes of its reply behind for the replays.
type recordingConn struct {
	net.Conn
	wire bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.Write(p[:n])
	return n, err
}

// cannedConn replays recorded wire bytes from memory: a server that costs
// nothing and a network that is not there.
type cannedConn struct{ r *bytes.Reader }

func (c *cannedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *cannedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// tracedResult is the traced pass over the live server.
type tracedResult struct {
	overheadPct float64
	// serverSpans holds, per span name, the duration in ns the server's own
	// tracer recorded for each traced scan; for "lane" the slowest lane.
	serverSpans map[string][]float64
	wire        []byte            // the recorded reply of one scan
	entry       *dbms.ColumnStats // the catalog entry Stats serves
}

// tracedPass runs after the timed window and never overlaps it: p.tracedScans
// turns of connection A's own loop with client tracing on (so the overhead
// compares like with like), the server's span records of exactly those
// scans, and one more scan through a recording connection.
func (bn *bench) tracedPass(untracedP50 time.Duration) (*tracedResult, error) {
	tc, err := client.Dial(bn.addr)
	if err != nil {
		return nil, err
	}
	defer tc.Close()
	tc.EnableTracing()
	lats := make([]time.Duration, 0, bn.p.tracedScans)
	for i := 0; i < bn.p.tracedScans; i++ {
		lat, _ := bn.scan(tc, "traced-scan", bn.w.scanCol)
		lats = append(lats, lat)
		if !bn.w.twoConns {
			bn.stats(tc, "traced-stats", bn.w.statsCols[0])
		}
	}
	tr := &tracedResult{
		overheadPct: (float64(median(lats))/float64(untracedP50) - 1) * 100,
		serverSpans: map[string][]float64{},
	}
	for _, t := range bn.srv.Obs().Tracer().Recent(bn.p.tracedScans) {
		slowest := map[string]float64{}
		for _, s := range t.Spans {
			slowest[s.Name] = max(slowest[s.Name], float64(s.DurNS))
		}
		for name, d := range slowest {
			tr.serverSpans[name] = append(tr.serverSpans[name], d)
		}
	}

	raw, err := net.Dial("tcp", bn.addr)
	if err != nil {
		return nil, err
	}
	rc := &recordingConn{Conn: raw}
	recorder := client.New(rc)
	defer recorder.Close()
	bn.scan(recorder, "record-scan", bn.w.scanCol)
	tr.wire = rc.wire.Bytes()
	tr.entry = bn.srv.Catalog().Get(tableName, bn.w.statsCols[0])
	if tr.entry == nil {
		return nil, fmt.Errorf("no catalog entry for %s to replay", bn.w.statsCols[0])
	}
	return tr, nil
}

// replayer re-runs the workload's own pages, values and recorded wire bytes
// through each layer's public functions, single-threaded, and keeps one
// sample per layer per repetition.
type replayer struct {
	bn      *bench
	tr      *tracedResult
	spans   *spanLog
	rep     int          // the current repetition's span
	pages   []*page.Page // this repetition's page.Encode output
	samples map[string][]float64
}

// time runs fn under a span named after the layer metric it feeds.
func (r *replayer) time(name string, count int64, unit string, fn func()) time.Duration {
	id := r.spans.begin(name, r.rep)
	fn()
	return r.spans.end(id, count, unit)
}

func (r *replayer) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// per times fn once and samples the cost per unit of work, in ns.
func (r *replayer) per(name string, count int64, unit string, fn func()) {
	d := r.time(name, count, unit, fn)
	r.sample(name, float64(d.Nanoseconds())/float64(count))
}

// calls times n back-to-back calls of a µs-scale function and samples the
// cost of one, in ns.
func (r *replayer) calls(name string, n int, fn func()) {
	r.per(name, int64(n), "calls", func() {
		for i := 0; i < n; i++ {
			fn()
		}
	})
}

// replayLayers produces every per-layer sample. A layer whose output is
// wrong is an error: a fast wrong layer must not report a time.
func replayLayers(bn *bench, tr *tracedResult, spans *spanLog) (map[string][]float64, error) {
	r := &replayer{bn: bn, tr: tr, spans: spans, samples: map[string][]float64{}}
	var dm *durable.Manager
	if bn.w.durable {
		dir, err := os.MkdirTemp(scratchDir, "replay-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if dm, err = durable.Open(dir, durable.Options{}); err != nil {
			return nil, err
		}
		defer dm.Close()
	}
	for i := 0; i < bn.p.replayReps; i++ {
		r.rep = spans.begin(fmt.Sprintf("replay/rep%d", i), 0)
		err := errors.Join(r.transport(), r.statsPath(dm), r.sidePath())
		spans.end(r.rep, 1, "rep")
		if err != nil {
			return nil, err
		}
	}
	return r.samples, nil
}

// transport replays the layers every workload shares: page encode and
// checksum, frame encode and decode, the kernel's loopback floor, and the
// client against a canned connection.
func (r *replayer) transport() error {
	rel, wire := r.bn.rel, r.tr.wire
	r.per("page.encode_ns_per_page", int64(r.bn.or.pages), "pages", func() { r.pages = page.Encode(rel) })
	pages := r.pages
	n := int64(len(pages))
	sums := make([]uint32, len(pages))
	r.per("page.checksum_ns_per_page", n, "pages", func() {
		for i, p := range pages {
			sums[i] = page.Checksum(p.Bytes())
		}
	})

	// Frame encode as handleScan does it: images, then the CRC trailer,
	// then WriteFrame into the connection's 64 KiB bufio.Writer.
	var encErr error
	r.per("server.frame_encode_ns_per_page", n, "pages", func() {
		bw := bufio.NewWriterSize(io.Discard, 64<<10)
		frame := make([]byte, 0, pagesPerFrame*(page.Size+server.PageChecksumSize))
		for off := 0; off < len(pages); off += pagesPerFrame {
			end := min(off+pagesPerFrame, len(pages))
			frame = frame[:0]
			for _, pg := range pages[off:end] {
				frame = append(frame, pg.Bytes()...)
			}
			for _, ck := range sums[off:end] {
				frame = binary.LittleEndian.AppendUint32(frame, ck)
			}
			encErr = errors.Join(encErr, server.WriteFrame(bw, server.FramePagesCk, frame))
		}
		encErr = errors.Join(encErr, bw.Flush())
	})
	if encErr != nil {
		return fmt.Errorf("frame encode: %w", encErr)
	}

	var decoded int64
	var decErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.per("server.frame_decode_ns_per_page", n, "pages", func() {
		br := bufio.NewReaderSize(bytes.NewReader(wire), 64<<10)
		for {
			f, err := server.ReadFrame(br)
			if err != nil {
				if err != io.EOF {
					decErr = err
				}
				return
			}
			if f.Type == server.FramePagesCk {
				decoded += int64(len(f.Payload) / (page.Size + server.PageChecksumSize))
			}
		}
	})
	runtime.ReadMemStats(&after)
	if decErr != nil || decoded != n {
		return fmt.Errorf("frame decode: %d of %d pages, err %v", decoded, n, decErr)
	}
	r.sample("server.frame_decode_B_per_page", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))

	if err := r.loopback(wire, n); err != nil {
		return fmt.Errorf("loopback: %w", err)
	}

	var sum *client.ScanSummary
	var sink countingSink
	var scanErr error
	r.per("client.replay_ns_per_page", n, "pages", func() {
		c := client.New(&cannedConn{r: bytes.NewReader(wire)})
		sum, scanErr = c.Scan(tableName, r.bn.w.scanCol, &sink)
	})
	if scanErr != nil || sum.Pages != r.bn.or.pages || sink.n != int64(len(r.bn.or.images)) {
		return fmt.Errorf("client replay: delivered %d bytes, err %v", sink.n, scanErr)
	}
	return nil
}

// loopback writes the recorded reply to a real 127.0.0.1 connection in the
// server's 16 KiB write chunks while a goroutine reads it into a 64 KiB
// buffer (the client's bufio size) and drops it: what the kernel charges
// for the bytes alone.
func (r *replayer) loopback(wire []byte, pages int64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type drained struct {
		n   int64
		err error
	}
	done := make(chan drained, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- drained{err: err}
			return
		}
		defer conn.Close()
		var got drained
		buf := make([]byte, 64<<10)
		for got.err == nil {
			var n int
			n, got.err = conn.Read(buf)
			got.n += int64(n)
		}
		if got.err == io.EOF {
			got.err = nil
		}
		done <- got
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var got drained
	var werr error
	r.per("server.loopback_ns_per_page", pages, "pages", func() {
		for off := 0; off < len(wire) && werr == nil; off += 16 << 10 {
			_, werr = conn.Write(wire[off:min(off+16<<10, len(wire))])
		}
		conn.Close()
		got = <-done
	})
	if werr != nil || got.err != nil || got.n != int64(len(wire)) {
		return fmt.Errorf("drained %d of %d bytes, write err %v, read err %v", got.n, len(wire), werr, got.err)
	}
	return nil
}

// statsPath replays what a Stats read costs outside the socket, on the
// catalog entry the workload's reads are served from.
func (r *replayer) statsPath(dm *durable.Manager) error {
	entry := r.tr.entry
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	var raw []byte
	r.calls("hist.marshal_us", 100, func() {
		var err error
		raw, err = entry.Histogram.MarshalBinary()
		note(err)
	})
	var blobs [][]byte
	r.calls("sketch.encode_us", 100, func() {
		var err error
		blobs, err = sketch.EncodeBlocks(entry.Sketches)
		note(err)
	})
	var payload []byte
	r.calls("server.stats_encode_us", 100, func() {
		h, err := entry.Histogram.MarshalBinary()
		note(err)
		sk, err := sketch.EncodeBlocks(entry.Sketches)
		note(err)
		payload = server.EncodeStatsResult(server.StatsResult{
			RowCount: entry.RowCount, NDistinct: entry.NDistinct, Version: entry.Version,
			Histogram: h, Sketches: sk,
		})
	})
	back := new(hist.Histogram)
	r.calls("hist.unmarshal_us", 100, func() {
		back = new(hist.Histogram)
		note(back.UnmarshalBinary(raw))
	})
	var blocks sketch.Blocks
	r.calls("client.stats_decode_us", 100, func() {
		res, err := server.DecodeStatsResult(payload)
		note(err)
		h := new(hist.Histogram)
		note(h.UnmarshalBinary(res.Histogram))
		blocks, err = sketch.DecodeBlocks(res.Sketches)
		note(err)
	})
	if !back.Equal(entry.Histogram) || len(blocks) != len(entry.Sketches) || len(blobs) != len(entry.Sketches) {
		note(errors.New("stats round trip changed the entry"))
	}

	cat := dbms.NewCatalog()
	if dm != nil {
		cat = dm.Catalog() // journal attached: Put pays JournalPut too
	}
	put := *entry
	cat.Put(tableName, "replay", &put)
	r.calls("dbms.catalog_get_ns", 1000, func() {
		if cat.Get(tableName, "replay") == nil {
			note(errors.New("catalog lost the replay entry"))
		}
	})
	var body []byte
	r.calls("dbms.colstats_encode_us", 20, func() {
		var err error
		body, err = dbms.AppendColumnStats(body[:0], entry)
		note(err)
	})
	if r.bn.w.scanCol != "" {
		r.calls("dbms.catalog_put_us", 20, func() {
			put := *entry
			cat.Put(tableName, "replay", &put)
		})
	}
	if dm != nil {
		r.calls("durable.journal_put_us", 20, func() { dm.JournalPut(tableName, "replay", entry) })
		frames := (int(r.bn.or.pages) + pagesPerFrame - 1) / pagesPerFrame
		id := dm.ScanStarted(tableName, "replay", 0)
		progress := uint32(0)
		r.calls("durable.scan_progress_ns", frames, func() {
			progress += pagesPerFrame
			dm.ScanProgress(id, progress)
		})
		dm.ScanEnded(id, progress)
		note(dm.Sync()) // the next repetition starts with an empty queue
	}
	return errors.Join(errs...)
}

// sidePath replays one scan's statistics side path over the workload's
// column: parser, the lanes' binners and sketch chains fed frame by frame
// the way sidePath.feed deals them, the fan-in merge, the histogram chain.
func (r *replayer) sidePath() error {
	bn := r.bn
	col := bn.w.scanCol
	if col == "" {
		return nil // raw-move: no side path runs
	}
	rel, pages := bn.rel, r.pages
	rows := int64(rel.NumRows())
	spec, err := core.SpecFor(rel.Schema, col)
	if err != nil {
		return err
	}

	// Parser: every page through Feed; the values are kept per page for the
	// pushes below.
	parser := core.NewParser(spec)
	vals := make([]int64, 0, rows)
	bounds := make([]int, len(pages)+1)
	var perr error
	r.per("core.parser_ns_per_row", rows, "rows", func() {
		for i, p := range pages {
			vals, perr = parser.Feed(p.Bytes(), vals)
			if perr != nil {
				return
			}
			bounds[i+1] = len(vals)
		}
	})
	if perr != nil || int64(len(vals)) != rows {
		return fmt.Errorf("parser: %d of %d rows, err %v", len(vals), rows, perr)
	}
	ref := bn.or.refs[col]
	laneOf := func(pg int) int { return pg / pagesPerFrame % lanes }
	capRows := int64(pages[0].Capacity())

	// Binner construction, per lane, with the server's pool discipline: the
	// merged-away lanes are released at the end of the repetition, the
	// survivor never is.
	prof := hwprof.New()
	binners := make([]*core.Binner, lanes)
	d := r.time("core.binner_new_ms", lanes, "binners", func() {
		for l := range binners {
			pre, err := core.RangeFor(ref.lo, ref.hi, 1)
			if err != nil {
				perr = err
				return
			}
			cfg := core.DefaultBinnerConfig()
			cfg.Prof, cfg.ProfLane = prof, fmt.Sprintf("lane%d", l)
			binners[l] = core.NewBinner(cfg, pre)
		}
	})
	if perr != nil {
		return perr
	}
	r.sample("core.binner_new_ms", float64(d.Nanoseconds())/lanes)

	r.per("core.binner_push_ns_per_row", rows, "rows", func() {
		for i := range pages {
			binners[laneOf(i)].PushAll(vals[bounds[i]:bounds[i+1]])
		}
	})

	// The sketch chain and each of its blocks alone, fed page by page with
	// the global row ordinal, split across the lanes like the binners.
	pushChain := func(name string, spec sketch.ChainSpec) []*sketch.Chain {
		chains := make([]*sketch.Chain, lanes)
		for l := range chains {
			chains[l] = sketch.NewChain(spec)
		}
		r.per(name, rows, "values", func() {
			for i := range pages {
				c := chains[laneOf(i)]
				c.SetPos(int64(i) * capRows)
				c.PushAll(vals[bounds[i]:bounds[i+1]])
			}
		})
		return chains
	}
	def := sketch.DefaultChainSpec()
	for _, part := range []struct {
		name string
		spec sketch.ChainSpec
	}{
		{"sketch.hll_ns_per_value", sketch.ChainSpec{NDVPrecision: def.NDVPrecision}},
		{"sketch.spacesaving_ns_per_value", sketch.ChainSpec{HeavyK: def.HeavyK}},
		{"sketch.window_ns_per_value", sketch.ChainSpec{WindowW: def.WindowW}},
	} {
		for _, c := range pushChain(part.name, part.spec) {
			c.Release()
		}
	}
	chains := pushChain("sketch.chain_ns_per_value", def)

	var merr error
	r.per("core.binner_merge_ms", 1, "merges", func() {
		for _, b := range binners[1:] {
			merr = errors.Join(merr, binners[0].Merge(b))
		}
	})
	r.per("sketch.merge_us", 1, "merges", func() {
		for _, c := range chains[1:] {
			merr = errors.Join(merr, chains[0].Merge(c))
		}
	})
	if merr != nil {
		return fmt.Errorf("merge: %w", merr)
	}
	vec, _ := binners[0].Finish()
	var comp *core.CompressedBlock
	r.per("core.histchain_ms", 1, "chains", func() {
		comp = core.NewCompressedBlock(64, 64, vec.Total())
		core.NewScanner().Run(vec, comp)
	})
	var card int
	r.per("bins.cardinality_ms", 1, "passes", func() { card = vec.Cardinality() })
	r.sample("bins.num_bins", float64(vec.NumBins()))

	got := &hist.Histogram{Kind: hist.Compressed, Buckets: comp.Buckets(), Frequent: comp.Frequent(),
		Total: vec.Total(), DistinctTotal: int64(card)}
	est, _ := chains[0].Blocks().NDVEstimate()
	if !got.Equal(ref.hist) || int64(vec.NumBins()) != ref.numBins() || est <= 0 {
		return errors.New("replayed side path disagrees with the serial reference")
	}
	for l := 1; l < lanes; l++ {
		chains[l].Release()
		binners[l].Release()
	}

	// The second lane engine over the same relation, column and chain spec,
	// no network: the layer-versus-whole ratio ROADMAP asks to explain.
	pdp, err := stream.NewParallelDataPath(rel, col, stream.TenGbE, lanes)
	if err != nil {
		return err
	}
	pdp.Sketch = def
	if _, err := pdp.Scan(io.Discard, 0); err != nil { // encodes and caches the pages
		return err
	}
	var serr error
	d = r.time("stream.datapath_MBps", int64(len(bn.or.images)), "bytes", func() { _, serr = pdp.Scan(io.Discard, 0) })
	if serr != nil {
		return serr
	}
	r.sample("stream.datapath_MBps", float64(len(bn.or.images))/1e6/d.Seconds())
	return nil
}
