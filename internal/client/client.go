// Package client is the host side of the histserved wire protocol: it
// requests table scans, consumes the raw page byte stream (the data that
// was moving anyway), and fetches the histograms that movement produced.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"streamhist/internal/hist"
	"streamhist/internal/obs"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
)

// Client is one connection to a histserved server. It is not safe for
// concurrent use; open one Client per goroutine (the server is built for
// many connections).
type Client struct {
	conn net.Conn
	// fr receives replies in place: a page frame's payload aliases its buffer
	// until the next recv, so pages go from the kernel to the sink uncopied.
	fr      *server.FrameReader
	bw      *bufio.Writer
	timeout time.Duration

	redial      func() (net.Conn, error)
	maxAttempts int
	backoff     time.Duration

	// rec is the in-flight traced scan's record, all redial rounds folded
	// in; nil (every span call a pointer check) on an untraced client.
	rec *obs.ScanRecord

	// Distributed tracing state (EnableTracing): the client originates a
	// trace per logical scan, records its own spans, and ships them back to
	// the server in a trailer frame after the scan succeeds.
	tracing     bool
	lastTraceID uint64
}

// EnableTracing opts this client into distributed tracing: every Scan
// originates a 64-bit trace ID, carries it to the server in the request,
// records client-side spans (request, stream, sink, backoff, redials), and
// ships them back on scan close.
func (c *Client) EnableTracing() { c.tracing = true }

// LastTraceID returns the trace ID the most recent Scan originated (zero
// before any traced scan) — the handle for /traces?id= on the server.
func (c *Client) LastTraceID() uint64 { return c.lastTraceID }

// Dial connects to a histserved address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return New(conn), nil
}

// New wraps an established connection (e.g. one side of a net.Pipe).
func New(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		fr:      server.NewFrameReader(conn),
		bw:      bufio.NewWriterSize(conn, 64<<10),
		timeout: time.Minute,
	}
}

// SetTimeout bounds each request round-trip and each response frame read.
// Zero disables deadlines.
func (c *Client) SetTimeout(d time.Duration) {
	if d <= 0 && c.timeout > 0 {
		// recv arms the read deadline only while a timeout is in force, so
		// the last one armed is cleared here, once.
		c.conn.SetReadDeadline(time.Time{})
	}
	c.timeout = d
}

// SetRedial installs a reconnect function, enabling resumable scans: when a
// scan dies mid-stream (connection reset, timeout) or a page arrives with a
// bad checksum, the client redials and re-requests the scan from the first
// page it has not yet verifiably delivered, backing off exponentially
// between attempts. Without a redial function every such failure is final.
func (c *Client) SetRedial(f func() (net.Conn, error)) {
	c.redial = f
	if c.maxAttempts == 0 {
		c.maxAttempts = 8
	}
	if c.backoff == 0 {
		c.backoff = 2 * time.Millisecond
	}
}

// SetRetryPolicy tunes resumable-scan behaviour: a scan is abandoned after
// attempts consecutive tries that deliver no new verified pages (tries that
// make progress do not consume the budget), with the given backoff before
// the first retry, doubling after each fruitless one.
func (c *Client) SetRetryPolicy(attempts int, backoff time.Duration) {
	c.maxAttempts = attempts
	c.backoff = backoff
}

// reconnect swaps in a fresh connection from the redial function.
func (c *Client) reconnect() error {
	conn, err := c.redial()
	if err != nil {
		return fmt.Errorf("client: redial: %w", err)
	}
	c.conn.Close()
	c.conn = conn
	c.fr = server.NewFrameReader(conn)
	c.bw = bufio.NewWriterSize(conn, 64<<10)
	return nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) deadline() time.Time {
	if c.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.timeout)
}

// send writes one request frame.
func (c *Client) send(typ uint8, payload []byte) error {
	c.conn.SetWriteDeadline(c.deadline())
	if err := server.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// serverReplyError marks an error the server reported in a FrameError reply
// (unknown table or column, bad resume offset, internal failure). It unwraps
// to the protocol sentinels, so errors.Is still matches across the wire.
type serverReplyError struct{ err error }

func (e *serverReplyError) Error() string { return e.err.Error() }
func (e *serverReplyError) Unwrap() error { return e.err }

// recv reads one response frame, translating FrameError payloads into
// errors that wrap the protocol sentinels. A page frame's payload is valid
// only until the next recv.
func (c *Client) recv() (server.Frame, error) {
	if c.timeout > 0 {
		c.conn.SetReadDeadline(c.deadline())
	}
	f, err := c.fr.Next()
	if err != nil {
		return server.Frame{}, err
	}
	if f.Type == server.FrameError {
		return server.Frame{}, &serverReplyError{server.DecodeError(f.Payload)}
	}
	return f, nil
}

// retryable reports whether a scan failure could plausibly resolve on a
// fresh connection: transport failures and in-flight page corruption are
// worth a resume. A server FrameError reply is not — redialling would only
// re-send the same doomed request through the whole backoff budget — and
// neither is a protocol violation (ErrBadFrame): a peer that framed one
// response wrong will frame it wrong again.
func retryable(err error) bool {
	var reply *serverReplyError
	if errors.As(err, &reply) {
		return false
	}
	return !errors.Is(err, server.ErrBadFrame)
}

// ScanSummary reports one completed scan from the client's side.
type ScanSummary = server.ScanSummary

// errBadPage marks a checksum failure on a received page: retryable when a
// redial function is installed, final otherwise.
var errBadPage = fmt.Errorf("client: page failed checksum in flight")

// Scan streams table's raw pages into sink — byte-identical to what storage
// holds — and returns the server's end-of-scan summary. Pass column "" to
// move the data without refreshing any statistics; pass io.Discard as sink
// when only the side effect matters.
//
// Every page is verified against its checksum and only verified pages ever
// reach the sink, so what the sink holds is always a clean prefix of the
// relation. When a redial function is installed (SetRedial), a mid-scan
// failure — reset, timeout, or a corrupt page — restarts the scan from the
// first undelivered page with exponential backoff; the returned summary then
// covers the whole logical scan, with Retries recording the reconnects. A
// server rejection (unknown table or column, bad resume offset) is terminal
// and surfaces immediately, without consuming the retry budget.
func (c *Client) Scan(table, column string, sink io.Writer) (*ScanSummary, error) {
	if c.tracing {
		c.rec = obs.StartScan(0, "client", table, column, 16)
		c.lastTraceID = obs.NewTraceID()
		c.rec.EnableTrace(c.lastTraceID, 0, obs.SpanSideClient)
		// The root span covers the whole logical scan: publishing the record
		// closes it where the record ends.
		c.rec.BeginRoot("scan")
	}
	sum, err := c.scanWithRetry(table, column, sink)
	rec := c.rec
	c.rec = nil
	if rec == nil {
		return sum, err
	}
	// Publishing to the nil bundle only seals the record: the root span ends
	// where the scan ends, before the spans ship. Ship them only after a
	// success: a failed scan's connection is in no known state to carry
	// another frame.
	(*obs.Obs)(nil).Publish(rec)
	if err == nil {
		c.sendTraceReport(rec)
	}
	return sum, err
}

// sendTraceReport ships the client's recorded spans back to the server in a
// FrameTraceReport trailer. Strictly fail-open: the scan already succeeded,
// so a failed or refused trailer only costs trace completeness — the error
// is dropped, and no response is ever read (the server never writes one).
func (c *Client) sendTraceReport(ct *obs.ScanRecord) {
	spans := ct.Spans
	if len(spans) > server.MaxTraceReportSpans {
		spans = spans[:server.MaxTraceReportSpans]
	}
	payload := server.EncodeTraceReport(server.TraceReport{TraceID: ct.TraceID, Spans: spans})
	_ = c.send(server.FrameTraceReport, payload)
}

// timedWriter wraps the scan sink to time its writes: the window from the
// first to the last sink write becomes the client's "sink" span.
type timedWriter struct {
	w           io.Writer
	first, last int64
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	if tw.first == 0 {
		tw.first = time.Now().UnixNano()
	}
	n, err := tw.w.Write(p)
	tw.last = time.Now().UnixNano()
	return n, err
}

// scanWithRetry is Scan's redial loop, separated so the scan's one record
// wraps every attempt.
func (c *Client) scanWithRetry(table, column string, sink io.Writer) (*ScanSummary, error) {
	var (
		delivered uint64 // verified pages written to sink, all attempts
		bytesOut  uint64
		retries   uint32
		stalled   int // consecutive attempts that delivered nothing new
	)
	backoff := c.backoff
	for {
		before := delivered
		sum, err := c.scanAttempt(table, column, sink, &delivered, &bytesOut)
		if err == nil {
			sum.Pages = uint32(delivered)
			sum.Bytes = bytesOut
			sum.Retries = retries
			return sum, nil
		}
		if delivered > before {
			// Forward progress: the failure budget is for getting stuck,
			// not for how often a long scan trips, so it resets — the loop
			// still terminates, because progress is bounded by the table.
			stalled = 0
			backoff = c.backoff
		} else {
			stalled++
		}
		if !retryable(err) || c.redial == nil || stalled >= c.maxAttempts {
			return nil, err
		}
		retries++
		bi := c.rec.Begin("backoff")
		time.Sleep(backoff)
		c.rec.End(bi, 0)
		backoff *= 2
		di := c.rec.Begin("redial")
		rerr := c.reconnect()
		c.rec.End(di, 0)
		if rerr != nil {
			return nil, fmt.Errorf("%w (reconnect failed: %v)", err, rerr)
		}
	}
}

// scanAttempt runs one scan request starting at *delivered pages, sinking
// every page it can verify and advancing the cursors as it goes. Any error
// return leaves the cursors at the resume point.
func (c *Client) scanAttempt(table, column string, sink io.Writer, delivered, bytesOut *uint64) (*ScanSummary, error) {
	sreq := server.ScanRequest{
		Table:  table,
		Column: column,
		Offset: uint32(*delivered),
	}
	if c.rec != nil {
		sreq.TraceID = c.rec.TraceID
		sreq.ParentSpanID = c.rec.RootSpanID
	}
	ri := c.rec.Begin("request")
	err := c.send(server.FrameScan, server.EncodeScanRequest(sreq))
	c.rec.End(ri, 0)
	if err != nil {
		return nil, fmt.Errorf("client: sending SCAN: %w", err)
	}
	if c.rec != nil {
		// Time the sink's writes: first-to-last write becomes the "sink"
		// span, recorded however the attempt ends.
		tw := &timedWriter{w: sink}
		sink = tw
		defer func() {
			if tw.first != 0 {
				c.rec.AddSpan("sink", -1, tw.first, tw.last, 0, false)
			}
		}()
	}
	si := c.rec.Begin("stream")
	defer func() { c.rec.End(si, 0) }()
	var received uint64 // page bytes this attempt, as the server counts them
	// skip counts re-delivered duplicate pages still to swallow: a server
	// that aligns the resume down to a frame boundary (FrameResumeInfo)
	// re-sends pages the sink already holds. They are counted as received —
	// the server delivered them — but neither sunk twice nor verified: the
	// sink holds their verified copies, so a page damaged in flight inside
	// the overlap costs nothing, and a resume into a long frame does not
	// hinge on up to a frame's worth of pages arriving clean again.
	var skip uint64
	vi := -1 // open "verify-skip" span while duplicates are being swallowed
	for {
		f, err := c.recv()
		if err != nil {
			return nil, fmt.Errorf("client: SCAN %s.%s: %w", table, column, err)
		}
		switch f.Type {
		case server.FrameResumeInfo:
			start, err := server.DecodeResumeInfo(f.Payload)
			if err != nil {
				return nil, fmt.Errorf("client: SCAN %s.%s: %w", table, column, err)
			}
			if uint64(start) > *delivered {
				return nil, fmt.Errorf("client: %w: resume start %d beyond %d delivered pages",
					server.ErrBadFrame, start, *delivered)
			}
			skip = *delivered - uint64(start)
			if skip > 0 {
				vi = c.rec.Begin("verify-skip")
			}
		case server.FramePagesCk:
			unit := page.Size + server.PageChecksumSize
			n := len(f.Payload) / unit
			if n == 0 || len(f.Payload)%unit != 0 {
				return nil, fmt.Errorf("client: %w: pages+ck frame of %d bytes", server.ErrBadFrame, len(f.Payload))
			}
			trailer := f.Payload[n*page.Size:]
			for i := 0; i < n; i++ {
				received += page.Size
				if skip > 0 {
					skip--
					continue
				}
				img := f.Payload[i*page.Size : (i+1)*page.Size]
				if page.Checksum(img) != binary.LittleEndian.Uint32(trailer[i*4:]) {
					// The page was damaged in flight. Everything verified
					// so far is already safely in the sink; abandon the
					// attempt here so a retry resumes at exactly this page.
					return nil, fmt.Errorf("%w (page %d of %s)", errBadPage, *delivered, table)
				}
				if _, err := sink.Write(img); err != nil {
					return nil, fmt.Errorf("client: writing to sink: %w", err)
				}
				*delivered++
				*bytesOut += page.Size
			}
		case server.FrameScanEnd:
			sum, err := server.DecodeScanSummary(f.Payload)
			if err != nil {
				return nil, fmt.Errorf("client: SCAN summary: %w", err)
			}
			if sum.Bytes != received {
				return nil, fmt.Errorf("client: server reports %d bytes, received %d", sum.Bytes, received)
			}
			return &sum, nil
		default:
			return nil, fmt.Errorf("client: %w: unexpected frame type %d in scan", server.ErrBadFrame, f.Type)
		}
		if vi >= 0 && skip == 0 {
			// The frame-aligned overlap has been swallowed; close the
			// verify-skip span at the first frame past it.
			c.rec.End(vi, 0)
			vi = -1
		}
	}
}

// Stats is a column's catalog entry as served over the wire.
type Stats struct {
	Table, Column string
	// RowCount and NDistinct describe the relation at gather time.
	RowCount  int64
	NDistinct int64
	// Version is the catalog's table-modification counter at gather time.
	Version uint64
	// Histogram is the freshest served-scan histogram.
	Histogram *hist.Histogram
	// Sketches are the statistic blocks the same scan refreshed beside the
	// histogram (HLL NDV, heavy hitters, sliding window). Empty when the
	// server runs without a sketch chain.
	Sketches sketch.Blocks
}

// Stats fetches the freshest histogram for table.column. A corrupt
// histogram payload surfaces as an error wrapping hist.ErrCorruptHistogram,
// never as garbage buckets.
func (c *Client) Stats(table, column string) (*Stats, error) {
	req := server.EncodeScanRequest(server.ScanRequest{Table: table, Column: column})
	if err := c.send(server.FrameStats, req); err != nil {
		return nil, fmt.Errorf("client: sending STATS: %w", err)
	}
	f, err := c.recv()
	if err != nil {
		return nil, fmt.Errorf("client: STATS %s.%s: %w", table, column, err)
	}
	if f.Type != server.FrameStatsResult {
		return nil, fmt.Errorf("client: %w: unexpected frame type %d in stats", server.ErrBadFrame, f.Type)
	}
	res, err := server.DecodeStatsResult(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: STATS payload: %w", err)
	}
	h := new(hist.Histogram)
	if err := h.UnmarshalBinary(res.Histogram); err != nil {
		return nil, fmt.Errorf("client: decoding STATS histogram for %s.%s: %w", table, column, err)
	}
	blocks, err := sketch.DecodeBlocks(res.Sketches)
	if err != nil {
		return nil, fmt.Errorf("client: decoding STATS sketches for %s.%s: %w", table, column, err)
	}
	return &Stats{
		Table:     table,
		Column:    column,
		RowCount:  res.RowCount,
		NDistinct: res.NDistinct,
		Version:   res.Version,
		Histogram: h,
		Sketches:  blocks,
	}, nil
}

// TableInfo is re-exported for callers listing the served tables.
type TableInfo = server.TableInfo

// Tables lists the relations the server is serving.
func (c *Client) Tables() ([]TableInfo, error) {
	if err := c.send(server.FrameList, nil); err != nil {
		return nil, fmt.Errorf("client: sending LIST: %w", err)
	}
	f, err := c.recv()
	if err != nil {
		return nil, fmt.Errorf("client: LIST: %w", err)
	}
	if f.Type != server.FrameTables {
		return nil, fmt.Errorf("client: %w: unexpected frame type %d in list", server.ErrBadFrame, f.Type)
	}
	tables, err := server.DecodeTableList(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: LIST payload: %w", err)
	}
	return tables, nil
}
