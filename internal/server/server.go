package server

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/dbms"
	"streamhist/internal/durable"
	"streamhist/internal/faults"
	"streamhist/internal/lanes"
	"streamhist/internal/obs"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
	"streamhist/internal/table"
)

// ErrServerClosed is returned by Serve after a shutdown.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value gets sensible defaults. A setting
// only tests change is not a field but a TestConfig one (NewForTest).
type Config struct {
	// DrainWorkers bounds how many scans may run a statistics side path at
	// once. When the pool is exhausted a scan still streams at full speed —
	// it just skips the side path (fail open, §4: the accelerator must
	// never slow the regular flow of data).
	DrainWorkers int
	// ShardLanes is how many parallel Parser+Binner lanes each scan's side
	// path fans out to (the §7 replication design). Units of
	// lanes.UnitPages pages are dealt round-robin across the lanes and the
	// lanes' binner states are merged before histogram creation. 0 means
	// GOMAXPROCS.
	ShardLanes int
	// PagesPerFrame sets how many 8 KiB page images ride in one FramePagesCk,
	// capped at what fits MaxPayload (127). It is the transport's unit: one
	// Write and one resume boundary per frame.
	// From lanes.UnitPages up the side path deals the relation's UnitPages
	// windows to its lanes whatever this is, so no statistic or simulated
	// cycle depends on it; a smaller frame is one unit. Zero means 64: of 16,
	// 32, 64 and 127 it measured best on raw moves, the sketch-bound column
	// and the durable mix, and within 10 % of 16 on the wide-domain one
	// (EXPERIMENTS.md "Transport floor").
	PagesPerFrame int
	// Faults optionally wires the chaos harness into the serving path:
	// page corruption and truncation, connection resets, drain-pool
	// saturation, and bin-memory upsets all draw from this injector's
	// deterministic per-point streams. Nil (the default) disables every
	// injection; the fault-handling machinery itself always runs.
	Faults *faults.Injector
	// Obs is the observability bundle: metrics registry, scan tracer, and
	// structured logger. Nil gets a fresh obs.New() bundle (always-on
	// observability with a no-op logger); mount obs.Handler(srv.Obs(), ...)
	// to expose it over HTTP.
	Obs *obs.Obs
	// Sketch configures the daisy chain of statistic blocks each served
	// scan's side path runs beside the Binner, so every scan refreshes NDV,
	// heavy hitters, and a sliding-window aggregate along with the
	// histogram. Nil gets sketch.DefaultChainSpec(); a pointer to the zero
	// spec turns the chain off (the histogram side path is unaffected).
	Sketch *sketch.ChainSpec
	// Durable attaches crash-safe persistence: the server adopts the
	// manager's recovered catalog, so statistics survive restarts, and each
	// refreshed column's install is one asynchronous WAL record. A scan in
	// flight writes nothing; a client resumes it by its page offset. A nil
	// manager is the ephemeral, byte-identical-to-before configuration.
	Durable *durable.Manager
}

// Settings every deployment gets: each has one right value, so none is a
// Config field.
const (
	// writeWindow is the response write's progress window: a frame write
	// that moves less than deadlineChunk in one window fails
	// (deadlineWriter).
	writeWindow = 30 * time.Second
	// idleTimeout bounds the wait for the next request on a connection.
	idleTimeout = 2 * time.Minute
	// shutdownGrace bounds the drain when Serve's context is cancelled.
	shutdownGrace = 5 * time.Second
	// histTopK and histBuckets shape the Compressed histogram every refresh
	// installs: T exact heavy hitters and B equi-depth buckets over the rest,
	// the paper's evaluation setup.
	histTopK, histBuckets = 64, 64
)

func (c Config) withDefaults() Config {
	if c.DrainWorkers <= 0 {
		c.DrainWorkers = 8
	}
	if c.ShardLanes <= 0 {
		c.ShardLanes = runtime.GOMAXPROCS(0)
	}
	if c.PagesPerFrame <= 0 {
		c.PagesPerFrame = 64
	}
	if c.PagesPerFrame*(page.Size+PageChecksumSize) > MaxPayload {
		c.PagesPerFrame = MaxPayload / (page.Size + PageChecksumSize)
	}
	if c.Sketch == nil {
		spec := sketch.DefaultChainSpec()
		c.Sketch = &spec
	}
	return c
}

// colMeta is the per-column scan metadata computed at registration: the
// ColumnSpec the Parser needs and the value range the Binner is sized for —
// the "host-provided metadata" the paper piggybacks on the read command.
type colMeta struct {
	spec     core.ColumnSpec
	min, max int64
	ok       bool // false for empty columns: no side path possible
}

// tableEntry is one registered relation plus its lazily encoded page images
// and their storage-authoritative checksums, held in wire form: the stored
// bytes are the bytes a scan sends.
type tableEntry struct {
	rel  *table.Relation
	cols map[string]colMeta
	ppf  int // Config.PagesPerFrame: how many pages each slab frame carries

	once  sync.Once
	pages []*page.Page
	// slab is the relation as the exact byte sequence of its FramePagesCk
	// frames (header, page images, checksum trailer, back to back), so a
	// frame is served as one Write of a sub-slice. pages point into it. It is
	// never written after encode: scans on every connection share it.
	slab []byte
}

func (e *tableEntry) encode() {
	e.once.Do(func() {
		pages := page.Encode(e.rel)
		// Checksums are taken here, at encode time, before the images can
		// travel anywhere: the client verifies against what storage actually
		// held, not against a possibly corrupted relay.
		sums := make([]uint32, len(pages))
		for i, p := range pages {
			sums[i] = p.Checksum()
		}
		frames := (len(pages) + e.ppf - 1) / e.ppf
		e.slab = make([]byte, 0, frames*FrameHeaderSize+len(pages)*(page.Size+PageChecksumSize))
		for off := 0; off < len(pages); off += e.ppf {
			end := min(off+e.ppf, len(pages))
			e.slab = appendHeader(e.slab, FramePagesCk, (end-off)*(page.Size+PageChecksumSize))
			for i := off; i < end; i++ {
				at := len(e.slab)
				e.slab = append(e.slab, pages[i].Bytes()...)
				// Re-point the image into the slab and drop the encoder's
				// copy, so the relation is held once. FromBytes cannot fail
				// on an image Encode just produced.
				pages[i], _ = page.FromBytes(e.slab[at:len(e.slab):len(e.slab)])
			}
			for _, ck := range sums[off:end] {
				e.slab = binary.LittleEndian.AppendUint32(e.slab, ck)
			}
		}
		e.pages = pages
	})
}

// frame returns the wire bytes (header, images, trailer) of the frame whose
// first page is off, a multiple of ppf below the page count.
func (e *tableEntry) frame(off int) []byte {
	stride := FrameHeaderSize + e.ppf*(page.Size+PageChecksumSize)
	lo := off / e.ppf * stride
	hi := min(lo+stride, len(e.slab))
	return e.slab[lo:hi:hi]
}

func (e *tableEntry) pageImages() []*page.Page {
	e.encode()
	return e.pages
}

// connState tracks whether a connection is mid-request, so a graceful
// shutdown can close idle connections immediately and let active scans end.
type connState struct {
	mu     sync.Mutex
	active bool
}

// Server is the histserved scan service: it registers relations, streams
// their raw page bytes to clients, and — as a side effect of every served
// scan — refreshes the statistics catalog through the accelerator model.
type Server struct {
	cfg     Config
	catalog *dbms.Catalog
	// binner is the accelerator model every side-path lane simulates.
	binner core.BinnerConfig
	// writeTimeout and sideStallTimeout are zero, which keeps writeWindow and
	// the lane engine's stall timeout, unless a test sets them (NewForTest).
	writeTimeout, sideStallTimeout time.Duration

	mu     sync.RWMutex
	tables map[string]*tableEntry
	// listBytes sums listEntryBytes over tables: their worst-case LIST reply.
	listBytes int

	drainSem chan struct{}

	connMu     sync.Mutex
	listeners  map[net.Listener]struct{}
	conns      map[net.Conn]*connState
	inShutdown bool

	wg sync.WaitGroup

	// scanSeq numbers served scans so each gets its own deterministic
	// fault-injection fork; the same number keys the scan's trace and its
	// log records.
	scanSeq atomic.Int64

	obs     *obs.Obs
	metrics metrics
}

// New builds a Server with the given configuration and an empty catalog.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	catalog := dbms.NewCatalog()
	if cfg.Durable != nil {
		// Startup recovery already ran inside durable.Open; adopting its
		// catalog (journal attached) makes every future install durable.
		catalog = cfg.Durable.Catalog()
	}
	s := &Server{
		cfg:       cfg,
		binner:    core.DefaultBinnerConfig(),
		obs:       cfg.Obs,
		catalog:   catalog,
		tables:    make(map[string]*tableEntry),
		drainSem:  make(chan struct{}, cfg.DrainWorkers),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]*connState),
	}
	s.metrics = newMetrics(cfg.Obs.Registry(), cfg.ShardLanes, *cfg.Sketch)
	if prof := cfg.Obs.Profiler(); prof != nil {
		// The self-check of the whole attribution scheme, as a scrapeable
		// gauge: the profiler's live cycle total must equal what the PR 2
		// critical-path arithmetic attributed across refreshed scans. Any
		// drift — a lost spike, a double flush, a retired lane charged —
		// reads as 0 on the next scrape.
		expected := s.metrics.hwprofAttributed
		cfg.Obs.Registry().GaugeFunc("streamhist_hwprof_consistency",
			"1 when the hardware profile's cycle total matches the scan arithmetic attributed so far; 0 on drift.",
			func() float64 {
				if prof.TotalCycles() == expected.Value() {
					return 1
				}
				return 0
			})
		cfg.Obs.Registry().GaugeFuncs("streamhist_hwprof_cycles",
			"Simulated cycles attributed by the hardware profiler, summed over lanes.", hwprofCycles(prof))
	}
	if inj := cfg.Faults; inj != nil {
		// One computed gauge per injection point, read from the injector's
		// fork-tree-wide aggregate at scrape time: every scan's and lane's
		// child injector reports into the same totals.
		for _, p := range faults.Points() {
			p := p
			cfg.Obs.Registry().GaugeFunc(
				fmt.Sprintf(`streamhist_fault_injections{point="%s"}`, obs.LabelValue(string(p))),
				"Fault-injection hits per point across the whole fork tree.",
				func() float64 { return float64(inj.TotalHits(p)) })
		}
	}
	return s
}

// Obs exposes the server's observability bundle so a command can mount the
// introspection handler (obs.Handler) or swap in a real logger.
func (s *Server) Obs() *obs.Obs { return s.obs }

// Catalog exposes the server's statistics dictionary, e.g. to share it with
// an embedding planner or to inspect it in tests.
func (s *Server) Catalog() *dbms.Catalog { return s.catalog }

// Register adds (or replaces) a relation. Replacing bumps the catalog
// version so previously gathered statistics read as stale until the next
// served scan refreshes them. A relation that would make the LIST reply
// undecodable — more than maxListEntries tables or columns, or a reply over
// MaxPayload — is refused.
func (s *Server) Register(rel *table.Relation) error {
	if rel == nil || rel.Name == "" {
		return fmt.Errorf("server: relation must have a name")
	}
	if len(rel.Name) > maxNameLen {
		return fmt.Errorf("server: table name %q exceeds %d bytes", rel.Name, maxNameLen)
	}
	if n := rel.Schema.NumColumns(); n > maxListEntries {
		return fmt.Errorf("server: table %q has %d columns, over the LIST limit of %d", rel.Name, n, maxListEntries)
	}
	cols := make(map[string]colMeta, rel.Schema.NumColumns())
	for _, c := range rel.Schema.Columns {
		// Column names cross the wire under the same bound as table names: a
		// longer one could not be requested, and would make every LIST reply
		// undecodable.
		if len(c.Name) > maxNameLen {
			return fmt.Errorf("server: column name %q of table %q exceeds %d bytes", c.Name, rel.Name, maxNameLen)
		}
		spec, err := core.SpecFor(rel.Schema, c.Name)
		if err != nil {
			return err
		}
		m := colMeta{spec: spec}
		if lo, hi, err := core.ColumnRange(rel.ColumnByName(c.Name)); err == nil {
			m.min, m.max, m.ok = lo, hi, true
		}
		cols[c.Name] = m
	}
	s.mu.Lock()
	old, replaced := s.tables[rel.Name]
	listBytes := s.listBytes + listEntryBytes(rel)
	if replaced {
		listBytes -= listEntryBytes(old.rel)
	} else if len(s.tables) >= maxListEntries {
		s.mu.Unlock()
		return fmt.Errorf("server: table %q would be table %d, over the LIST limit of %d", rel.Name, len(s.tables)+1, maxListEntries)
	}
	if 2+listBytes > MaxPayload {
		s.mu.Unlock()
		return fmt.Errorf("server: table %q would grow the LIST reply to %d bytes, over the limit of %d", rel.Name, 2+listBytes, MaxPayload)
	}
	s.listBytes = listBytes
	s.tables[rel.Name] = &tableEntry{rel: rel, cols: cols, ppf: s.cfg.PagesPerFrame}
	s.mu.Unlock()
	if replaced {
		s.catalog.BumpVersion(rel.Name)
	}
	return nil
}

// listEntryBytes is the most rel can add to a LIST reply: its name, row count
// and two column counts, and every column name twice — once as a column and
// once as a stats column.
func listEntryBytes(rel *table.Relation) int {
	n := 2 + len(rel.Name) + 8 + 2 + 2
	for _, c := range rel.Schema.Columns {
		n += 2 * (2 + len(c.Name))
	}
	return n
}

func (s *Server) lookup(name string) (*tableEntry, error) {
	s.mu.RLock()
	e := s.tables[name]
	s.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return e, nil
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully (bounded by shutdownGrace) and returns ErrServerClosed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if s.shuttingDown() {
		return ErrServerClosed
	}
	s.connMu.Lock()
	s.listeners[ln] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.listeners, ln)
		s.connMu.Unlock()
	}()

	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.shuttingDown() {
				sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
				defer cancel()
				if serr := s.Shutdown(sctx); serr != nil {
					return fmt.Errorf("%w: drain: %v", ErrServerClosed, serr)
				}
				return ErrServerClosed
			}
			return err
		}
		st := s.trackConn(conn)
		if st == nil {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn, st)
	}
}

// ServeConn serves one pre-established connection (e.g. one side of a
// net.Pipe) until the peer disconnects or the server shuts down. It blocks.
func (s *Server) ServeConn(conn net.Conn) {
	st := s.trackConn(conn)
	if st == nil {
		conn.Close()
		return
	}
	s.wg.Add(1)
	s.handleConn(conn, st)
}

func (s *Server) trackConn(conn net.Conn) *connState {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.inShutdown {
		return nil
	}
	st := &connState{}
	s.conns[conn] = st
	s.metrics.activeConns.Add(1)
	return st
}

func (s *Server) dropConn(conn net.Conn) {
	s.connMu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.metrics.activeConns.Add(-1)
	}
	s.connMu.Unlock()
}

func (s *Server) shuttingDown() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.inShutdown
}

// Shutdown stops accepting, lets in-flight requests finish, closes idle
// connections, and waits for every handler to exit. When ctx expires first,
// remaining connections are force-closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.inShutdown = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.connMu.Unlock()

	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s.closeIdleConns() == 0 {
			s.wg.Wait()
			return nil
		}
		select {
		case <-ctx.Done():
			s.closeAllConns()
			s.wg.Wait()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close force-closes every listener and connection and waits for handlers.
func (s *Server) Close() error {
	s.connMu.Lock()
	s.inShutdown = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.connMu.Unlock()
	s.closeAllConns()
	s.wg.Wait()
	return nil
}

// closeIdleConns closes connections not currently serving a request and
// returns how many connections remain registered.
func (s *Server) closeIdleConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for conn, st := range s.conns {
		st.mu.Lock()
		idle := !st.active
		st.mu.Unlock()
		if idle {
			conn.Close()
		}
	}
	return len(s.conns)
}

func (s *Server) closeAllConns() {
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

// deadlineWriter is the per-connection write path. It hands each write — a
// whole page frame — to the connection in one call under a write deadline
// armed once, so the deadline bounds *lack of progress*, not transfer time:
// when it fires part-way, the writer re-arms and carries on only if at least
// deadlineChunk went out since the last arm, and fails otherwise.
//
// A peer is thereby held to deadlineChunk per writeWindow, the rate a writer
// re-arming before every 16 KiB chunk enforced. A slow but live client that
// absorbs that much keeps extending its own deadline however long the frame
// or the scan; one absorbing less is cut at the end of the first window that
// falls short — within two windows of slowing down, since the window it
// slowed in may still be credited with bytes the kernel had room for; and a
// dead client trips the very next deadline, within one writeWindow of the
// last arm. Short of the deadline the rule costs nothing: one syscall per
// frame, not one per 16 KiB.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

// deadlineChunk is the least a write must move per writeWindow to be
// allowed another one.
const deadlineChunk = 16 << 10

func (w *deadlineWriter) Write(p []byte) (int, error) {
	var total int
	for {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		n, err := w.conn.Write(p[total:])
		total += n
		if err == nil || n < deadlineChunk || !errors.Is(err, os.ErrDeadlineExceeded) {
			return total, err
		}
	}
}

// handleConn runs one connection's request loop.
func (s *Server) handleConn(conn net.Conn, st *connState) {
	defer func() {
		s.dropConn(conn)
		conn.Close()
		s.wg.Done()
	}()
	// Requests are a few dozen bytes; the 64 KiB goes to the writer, which
	// batches small replies and passes page frames through untouched.
	br := bufio.NewReaderSize(conn, 4<<10)
	bw := bufio.NewWriterSize(&deadlineWriter{conn: conn, timeout: cmp.Or(s.writeTimeout, writeWindow)}, 64<<10)
	for {
		if s.shuttingDown() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		f, err := ReadFrame(br)
		if err != nil {
			// EOF, idle timeout, or an unframeable stream: nothing to
			// resynchronise on, drop the connection. A peer framing correctly
			// at another protocol version is told so first.
			if errors.Is(err, errVersion) {
				_ = s.writeError(bw, err) // closing either way
			}
			return
		}
		st.mu.Lock()
		st.active = true
		st.mu.Unlock()
		err = s.dispatch(conn, bw, f)
		st.mu.Lock()
		st.active = false
		st.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// dispatch handles one request frame. A returned error means the connection
// is unusable (I/O failure); request-level failures are reported to the
// client in a FrameError and return nil.
func (s *Server) dispatch(conn net.Conn, bw *bufio.Writer, f Frame) error {
	switch f.Type {
	case FrameScan:
		req, err := DecodeScanRequest(f.Payload)
		if err != nil {
			return s.writeError(bw, fmt.Errorf("%w: %v", ErrBadRequest, err))
		}
		return s.handleScan(conn, bw, req)
	case FrameStats:
		req, err := DecodeScanRequest(f.Payload)
		if err != nil {
			return s.writeError(bw, fmt.Errorf("%w: %v", ErrBadRequest, err))
		}
		return s.handleStats(bw, req)
	case FrameList:
		return s.handleList(bw)
	case FrameTraceReport:
		// The client's span trailer. One-way by contract: the client does
		// not read a reply, so writing anything here — even a FrameError
		// for a malformed payload — would be consumed as the answer to the
		// client's NEXT request and desynchronise the stream. Decode
		// failures are counted, logged, and dropped (fail-open).
		rep, err := DecodeTraceReport(f.Payload)
		if err != nil {
			s.metrics.traceReportsBad.Add(1)
			s.obs.Logger().Warn("dropped malformed trace report", "err", err.Error())
			return nil
		}
		s.obs.Tracer().Report(rep.TraceID, rep.Spans)
		s.metrics.traceReports.Add(1)
		return nil
	default:
		return s.writeError(bw, fmt.Errorf("%w: unexpected frame type %d", ErrBadRequest, f.Type))
	}
}

func (s *Server) writeError(bw *bufio.Writer, err error) error {
	if werr := WriteFrame(bw, FrameError, EncodeError(err)); werr != nil {
		return werr
	}
	return bw.Flush()
}

// servedScan is one scan's working state, threaded through handleScan's
// stages: the request, what accept resolved it to, and the record every stage
// writes what it learned into.
type servedScan struct {
	req   ScanRequest
	rec   *obs.ScanRecord
	inj   *faults.Injector
	entry *tableEntry
	meta  colMeta
	start int // first page streamed: the offset, frame-aligned when resuming
	side  *sidePath
}

// handleScan streams the relation's raw page images to the client and, on
// the side, bins the requested column and refreshes the catalog histogram.
// The serving path never waits for histogram construction: statistics are a
// by-product of the bytes that were moving anyway. It drives five stages —
// accept, resume, stream, finish, summarise — that are also the span
// boundaries; each writes what it learned into the scan's one record, which
// is published exactly once whichever way the scan ends.
func (s *Server) handleScan(conn net.Conn, bw *bufio.Writer, req ScanRequest) (err error) {
	// The scan number keys everything observable about this scan: its fault
	// fork, its record, and its log line.
	id := uint64(s.scanSeq.Add(1))
	rec := obs.StartScan(id, "server", req.Table, req.Column, s.cfg.ShardLanes+4)
	// A request carrying trace context makes this scan continue the client's
	// distributed trace: every span recorded below gets a derived span ID
	// under the server-side root. The side salt folds in the local scan id so
	// a redialled trace — several server scans continuing the same trace ID —
	// gets distinct span IDs per attempt and each attempt's spans nest under
	// their own "serve" root at assembly.
	if req.TraceID != 0 {
		rec.EnableTrace(req.TraceID, req.ParentSpanID, obs.SpanSideServer|id<<8)
	}
	rec.Resumed = req.Offset > 0
	if conn != nil && conn.RemoteAddr() != nil {
		rec.Client = conn.RemoteAddr().String()
	}
	sc := &servedScan{req: req, rec: rec}
	// failure captures request-level errors that are reported to the client
	// in-band (the connection stays usable, so err stays nil).
	var failure error
	defer func() {
		if fail := cmp.Or(err, failure); fail != nil {
			rec.Err = fail.Error()
		}
		s.obs.Publish(rec)
		// Traced scans pin their trace ID to the latency distribution's
		// exemplar slot, so the /metrics p99 line links back to a trace.
		s.metrics.scanLatency.ObserveWithExemplar(rec.WallNS, rec.TraceID)
	}()

	if failure = s.accept(sc); failure != nil {
		return s.writeError(bw, failure)
	}
	sc.inj = s.cfg.Faults.Fork(fmt.Sprintf("scan%d", id))
	if err := s.resume(bw, sc); err != nil {
		return err
	}
	// A resumed scan runs no side path: a partial scan cannot yield an
	// honest histogram.
	if !rec.Resumed {
		if sc.side = s.startSidePath(sc); sc.side != nil {
			defer sc.side.abandon()
		}
	}
	if err := s.stream(conn, bw, sc); err != nil {
		return err
	}
	s.finish(sc)
	return s.summarise(bw, rec)
}

// accept resolves the request against the registered relations: table,
// column, and a resume offset inside the relation. What it returns is a
// request-level failure, reported to the client in-band.
func (s *Server) accept(sc *servedScan) error {
	ai := sc.rec.Begin("accept")
	defer sc.rec.End(ai, 0)
	entry, err := s.lookup(sc.req.Table)
	if err != nil {
		return err
	}
	if sc.req.Column != "" {
		var ok bool
		if sc.meta, ok = entry.cols[sc.req.Column]; !ok {
			return fmt.Errorf("%w: %q.%q", ErrUnknownColumn, sc.req.Table, sc.req.Column)
		}
	}
	if n := len(entry.pageImages()); sc.req.Offset > uint32(n) {
		return fmt.Errorf("%w: resume offset %d beyond %d pages", ErrBadRequest, sc.req.Offset, n)
	}
	sc.entry = entry
	return nil
}

// resume fixes where the stream starts. A nonzero request offset resumes an
// interrupted scan at that page: the start is aligned down to a frame
// boundary and announced before any pages move, so the frames re-sent from
// there are byte-identical to the original delivery (same page windows, same
// checksum trailers) and the client skips the overlap it already verified.
// The offset is all a resume needs, across a restart too: nothing about a
// scan in flight is written to the durable catalog.
func (s *Server) resume(bw *bufio.Writer, sc *servedScan) error {
	sc.start = int(sc.req.Offset)
	if !sc.rec.Resumed {
		return nil
	}
	s.metrics.retriesServed.Add(1)
	sc.start -= sc.start % sc.entry.ppf
	return WriteFrame(bw, FrameResumeInfo, EncodeResumeInfo(uint32(sc.start)))
}

// stream is the page loop: one Write per stored frame and the side path's
// feed. Frames carry a per-page CRC32C trailer (FramePagesCk) computed at
// encode time, so corruption anywhere downstream of storage is detectable by
// every consumer.
func (s *Server) stream(conn net.Conn, bw *bufio.Writer, sc *servedScan) error {
	rec, entry, inj, sp := sc.rec, sc.entry, sc.inj, sc.side
	si := rec.Begin("stream")
	defer rec.End(si, 0)
	pages := entry.pageImages()
	// Injected in-flight corruption is the one case that needs a scratch
	// frame: the damage lands after the checksum trailer was laid down,
	// exactly like a relay flipping bits after storage vouched for the
	// bytes. The wire carries the corrupt image (the raw path fails open and
	// never rewrites data); the trailer is what lets the client catch it, and
	// the side path is told which pages were hit (bad). Every other scan
	// sends the stored frames as they are.
	corrupt := inj.Enabled(faults.PageCorrupt)
	var scratch []byte
	var bad []bool
	for off := sc.start; off < len(pages); off += entry.ppf {
		end := min(off+entry.ppf, len(pages))
		frame := entry.frame(off)
		if corrupt {
			scratch = append(scratch[:0], frame...)
			frame = scratch
			bad = bad[:0]
			for i := off; i < end; i++ {
				hit := inj.Should(faults.PageCorrupt)
				if hit {
					pos := FrameHeaderSize + (i-off)*page.Size + int(inj.Intn(faults.PageCorrupt, page.Size))
					frame[pos] ^= byte(1 + inj.Intn(faults.PageCorrupt, 255))
				}
				bad = append(bad, hit)
			}
		}
		if inj.Should(faults.ConnReset) {
			// Injected transport failure: the connection dies mid-scan,
			// taking the side path down with it (deferred abandon).
			conn.Close()
			return fmt.Errorf("server: injected connection reset")
		}
		if _, werr := bw.Write(frame); werr != nil {
			return werr
		}
		n := (end - off) * page.Size
		rec.Pages += uint32(end - off)
		rec.Bytes += uint64(n)
		if sp != nil {
			sp.feed(off, end, bad, inj)
		}
	}
	return nil
}

// finish completes the scan's side effect into the record. A statistics
// refresh that was requested and possible but did not happen — saturation,
// resumption or faults — must say so: the summary must not read like a
// clean no-op.
func (s *Server) finish(sc *servedScan) {
	if sc.side != nil {
		sc.side.finish()
	}
	if sc.req.Column != "" && sc.meta.ok && !sc.rec.Refreshed {
		sc.rec.Degraded = true
	}
}

// summarise bumps the once-per-scan counters and closes the scan on the
// wire, both from the record: the summary frame carries the same numbers
// every other view of this scan will report.
func (s *Server) summarise(bw *bufio.Writer, rec *obs.ScanRecord) error {
	if rec.Degraded {
		s.metrics.scansDegraded.Add(1)
	}
	if rec.Refreshed {
		s.metrics.rowsBinned.Add(int64(rec.Rows))
		s.metrics.histRefreshed.Add(1)
		s.metrics.accelCycles.Add(int64(rec.AccelCycles))
	}
	s.metrics.scansServed.Add(1)
	s.metrics.pagesMoved.Add(int64(rec.Pages))
	s.metrics.bytesMoved.Add(int64(rec.Bytes))

	sum := ScanSummary{
		Pages: rec.Pages, Bytes: rec.Bytes, Rows: rec.Rows,
		Refreshed: rec.Refreshed, Degraded: rec.Degraded,
		AccelCycles:   rec.AccelCycles,
		AccelSeconds:  s.binner.Clock.Seconds(int64(rec.AccelCycles)),
		SkippedTuples: rec.SkippedTuples, QuarantinedPages: rec.QuarantinedPages,
		LanesRetired: rec.LanesRetired,
	}
	if err := WriteFrame(bw, FrameScanEnd, EncodeScanSummary(sum)); err != nil {
		return err
	}
	return bw.Flush()
}

// handleStats answers with the freshest catalog entry for the column.
func (s *Server) handleStats(bw *bufio.Writer, req ScanRequest) error {
	entry, err := s.lookup(req.Table)
	if err != nil {
		return s.writeError(bw, err)
	}
	if _, ok := entry.cols[req.Column]; !ok {
		return s.writeError(bw, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, req.Table, req.Column))
	}
	st := s.catalog.Get(req.Table, req.Column)
	if st == nil || st.Histogram == nil || st.Encoded() == nil {
		return s.writeError(bw, fmt.Errorf("%w: %q.%q (serve a scan first)", ErrNoStats, req.Table, req.Column))
	}
	enc := st.Encoded()
	if len(enc) > MaxPayload {
		// The entry cannot ride one frame; the connection itself is fine.
		return s.writeError(bw, fmt.Errorf("statistics for %q.%q are %d bytes, over the %d-byte frame limit",
			req.Table, req.Column, len(enc), MaxPayload))
	}
	s.metrics.statsServed.Add(1)
	// The header and head go through the writer's own free buffer and the
	// rest is the installed bytes as they are: a Stats read allocates
	// nothing.
	if _, err := bw.Write(appendStatsHead(bw.AvailableBuffer(), enc)); err != nil {
		return err
	}
	if _, err := bw.Write(enc[statsEntryHead:]); err != nil {
		return err
	}
	return bw.Flush()
}

// handleList answers with the registered tables, their schemas, and which
// columns currently have served-scan statistics.
func (s *Server) handleList(bw *bufio.Writer) error {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]TableInfo, 0, len(names))
	for _, name := range names {
		e := s.tables[name]
		info := TableInfo{Name: name, Rows: int64(e.rel.NumRows())}
		for _, c := range e.rel.Schema.Columns {
			info.Columns = append(info.Columns, c.Name)
		}
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	for i := range infos {
		infos[i].StatsColumns = s.catalog.StatsColumns(infos[i].Name)
	}
	if err := WriteFrame(bw, FrameTables, EncodeTableList(infos)); err != nil {
		return err
	}
	return bw.Flush()
}

// sidePath is the server's policy around one scan's lanes.Engine: it builds
// the units (the splitter), owns the drain-pool slot, and turns what
// the engine reports into the scan's statistics yield. The side path is
// strictly subordinate to the raw stream: whatever happens to a lane or a
// page, the page stream is already complete or still completing at full
// speed. The server cannot re-read the wire, so what the engine lost degrades
// the statistic — and the degradation is always reported, never silent.
type sidePath struct {
	s *Server
	// sc is the owning scan: finish() writes the statistics yield into its
	// record and appends the lane, merge, and install spans.
	sc  *servedScan
	eng *lanes.Engine
	// pend is the unit feed is assembling.
	pend lanes.Unit
	// unitsLost notes units no live lane would take (all retired or all
	// stalled past the timeout): the merged view is missing that data.
	unitsLost bool
	stopped   bool
}

// startSidePath acquires a drain worker and wires the side path, or returns
// nil when statistics must be skipped: no column requested, an empty
// column, or a fully busy worker pool (the stream always wins; the scan
// fails open and the catalog simply isn't refreshed this time). Injected
// drain-pool saturation exercises the same skip path as the real thing.
func (s *Server) startSidePath(sc *servedScan) *sidePath {
	entry, req, meta, inj := sc.entry, sc.req, sc.meta, sc.inj
	if req.Column == "" || !meta.ok {
		return nil
	}
	if inj.Should(faults.DrainSaturate) {
		s.metrics.sideSkipped.Add(1)
		return nil
	}
	select {
	case s.drainSem <- struct{}{}:
	default:
		s.metrics.sideSkipped.Add(1)
		return nil
	}
	eng, err := lanes.Start(lanes.Config{
		Lanes: s.cfg.ShardLanes, StallTimeout: s.sideStallTimeout,
		Column: meta.spec, Min: meta.min, Max: meta.max, Divisor: 1,
		Pages: entry.pageImages(), Sketch: *s.cfg.Sketch, Faults: inj, Fork: "side-lane%d",
		Binner: s.laneBinner,
	})
	if err != nil {
		<-s.drainSem
		s.metrics.sideSkipped.Add(1)
		return nil
	}
	return &sidePath{s: s, sc: sc, eng: eng}
}

// laneBinner is the Binner configuration of one side-path lane. The lane's
// injector drives its binner's hw.mem.* points as well as its lane faults:
// forking per lane (rather than letting every lane of every concurrent scan
// draw from one shared root injector) keeps memory-fault decisions
// reproducible from the seed alone, whatever the goroutine interleaving.
func (s *Server) laneBinner(linj *faults.Injector) core.BinnerConfig {
	bcfg := s.binner
	bcfg.Faults = linj
	// Live ECC/latency event sinks: these fire as faults are handled in any
	// lane (including lanes later retired), where the folded
	// ecc_corrected/bins_quarantined counters only see merged state.
	bcfg.MemEvents = s.metrics.memEvents
	bcfg.Prof = s.obs.Profiler()
	return bcfg
}

// feed hands the lanes the pages [off, end) of one relayed frame; bad, when
// non-nil, marks which of them (by index from off) the wire carried corrupt.
// A frame of at most lanes.UnitPages pages is one unit. A longer one is cut at
// the relation's UnitPages boundaries, and the piece its end leaves short of
// one waits in pend for the next frame to complete it: the units are then the
// relation's consecutive UnitPages windows whatever the frame size, so which
// lane bins a page — and every simulated cycle — is what it is at UnitPages a
// frame. A unit no lane takes is dropped and the eventual histogram honestly
// reports the loss.
func (sp *sidePath) feed(off, end int, bad []bool, inj *faults.Injector) {
	windows := sp.sc.entry.ppf > lanes.UnitPages
	for i := off; i < end; i++ {
		if sp.pend.N == 0 {
			sp.pend.First = i
		}
		if bad != nil && bad[i-off] {
			sp.pend.Bad |= 1 << sp.pend.N
		}
		sp.pend.N++
		next := i + 1
		unitEnd := next%lanes.UnitPages == 0 || next == len(sp.sc.entry.pages)
		if windows && unitEnd || !windows && next == end {
			sp.deal(inj)
		}
	}
}

// deal feeds the assembled unit to the lanes. An injected truncation is the
// splitter's DMA slipping: the side path receives only a prefix of the bytes
// the wire already carried whole, and the pages past it are Cut.
func (sp *sidePath) deal(inj *faults.Injector) {
	u := sp.pend
	sp.pend = lanes.Unit{}
	if inj.Should(faults.PageTruncate) {
		u.Cut = u.N - int(inj.Intn(faults.PageTruncate, int64(u.N*page.Size)))/page.Size
	}
	if sp.eng.Feed(u) < 0 {
		sp.unitsLost = true
	}
}

// stop ends the side path's input: it joins the lanes (bounded by the
// engine's stall timeout), accounts for the casualties — even a scan abandoned
// mid-stream reports what it quarantined and retired — and releases the pool
// slot. Idempotent; called from the serving goroutine only.
func (sp *sidePath) stop() {
	if sp.stopped {
		return
	}
	sp.stopped = true
	sp.eng.Join()
	sp.s.metrics.pagesQuarantined.Add(sp.eng.Quarantined())
	sp.s.metrics.lanesRetired.Add(int64(sp.eng.Retired()))
	<-sp.s.drainSem
}

// finish completes the side path: it fans the surviving lane states back in,
// accounts for what the lanes lost, and — when a merged view exists — hands it
// to install. Faults reaching this point shape the record in exactly one of
// two ways: either every loss was masked and the histogram is exact, or the
// scan is marked Degraded with the loss quantified — there is no silent third
// outcome.
func (sp *sidePath) finish() {
	sp.stop()
	s, rec := sp.s, sp.sc.rec
	prof := s.obs.Profiler()
	fan, err := sp.eng.FanIn(rec, prof, s.binner.Mem.BinsPerLine)
	// The lanes FanIn finished flushed their attribution; record the matching
	// expectation now, so profile and counter agree whatever happens next.
	var laneSum int64
	for _, ls := range fan.PerLane {
		laneSum += ls.Cycles
	}
	s.metrics.hwprofAttributed.Add(laneSum)
	if err != nil {
		// A real data error (not injected), or the cannot-happen merge of
		// unlike geometries: fail open.
		s.metrics.parseErrors.Add(1)
		rec.Degraded = true
		return
	}
	rec.QuarantinedPages = uint32(sp.eng.Quarantined())
	rec.LanesRetired = uint32(sp.eng.Retired())
	if fan.Survivor == nil {
		// No lane survived. Install nothing.
		rec.Degraded = true
		return
	}
	for i, ls := range fan.PerLane {
		s.metrics.setLaneCycles(i, ls.Cycles)
	}
	s.metrics.laneMerges.Add(int64(fan.Merges))
	bstats := fan.Stats
	s.metrics.faultsCorrected.Add(bstats.FaultsCorrected)
	s.metrics.binsQuarantined.Add(bstats.BinsQuarantined)
	if bstats.Items == 0 {
		rec.Degraded = true
		return
	}
	sp.install(fan)
}

// install runs the histogram chain over the merged view, puts the Compressed
// histogram and the sketch blocks in the catalog, and writes the scan's
// statistics yield plus the simulated hardware cost into the record.
func (sp *sidePath) install(fan lanes.FanIn) {
	s, rec, bstats := sp.s, sp.sc.rec, fan.Stats
	prof := s.obs.Profiler()
	out := core.Config{
		CompressedT: histTopK, CompressedBuckets: histBuckets, Binner: s.binner,
	}.Results(fan.Survivor, bstats, prof)
	// The merge span is charged everything past the lanes' own binning: the
	// fan-in aggregation pass, the histogram chain, and the merged sketch
	// chain — so max(lane cycles) + merge cycles == AccelCycles, and the
	// hwprof consistency gauge keeps holding with sketches on.
	past := fan.AggregationCycles + out.Chain.TotalCycles + out.SketchCycles
	if prof != nil {
		s.metrics.hwprofAttributed.Add(past)
	}
	rec.End(fan.Span, past)

	// The one honesty invariant everything above funnels into: any gap
	// between what the relation holds and what the merged view counted —
	// retired lanes, quarantined pages, dropped frames, bin-memory losses
	// — makes the histogram Degraded, with the gap as its skipped count.
	h := out.Compressed
	relRows := int64(sp.sc.entry.rel.NumRows())
	h.Skipped = max(relRows-h.Total, 0)
	h.Degraded = h.Skipped > 0 || rec.LanesRetired > 0 || rec.QuarantinedPages > 0 ||
		bstats.BinsQuarantined > 0 || sp.unitsLost
	sideChain := fan.Survivor.SketchChain()
	if h.Degraded {
		// The sketches saw the same incomplete stream the histogram did;
		// they are served, but flagged, never silently wrong.
		sideChain.MarkDegraded()
	}
	ii := rec.Begin("install")
	s.catalog.Put(sp.sc.req.Table, sp.sc.req.Column, &dbms.ColumnStats{
		Histogram: h,
		Sketches:  out.Sketches,
		NDistinct: h.DistinctTotal,
		RowCount:  relRows,
	})
	rec.End(ii, 0)
	s.metrics.setSketch(sideChain)

	rec.Rows = uint64(bstats.Items)
	rec.Refreshed = true
	rec.Degraded = h.Degraded
	rec.AccelCycles = uint64(bstats.Cycles + out.Chain.TotalCycles + out.SketchCycles)
	rec.SkippedTuples = uint64(h.Skipped)

	// What the install keeps of the survivor is the histogram and the sketch
	// blocks: its bin region is not referenced past this point and goes back
	// to the pool. Its chain stays out — the blocks now live in the catalog.
	// The merged-away lanes follow here, before the summary is written, not
	// in the deferred abandon(): a client's next request is often a Stats
	// read, and it should not find the handler still tidying up.
	fan.Survivor.Release()
	sp.eng.Close()
}

// abandon releases the side path: handleScan defers it, so it runs whether
// the scan failed before its summary (nothing installed, the lanes just
// drain) or finish() completed. Idempotent.
func (sp *sidePath) abandon() {
	sp.stop()
	sp.eng.Close()
}
