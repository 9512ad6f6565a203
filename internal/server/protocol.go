package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"streamhist/internal/obs"
	"streamhist/internal/wire"
)

// The wire protocol of histserved. Everything that crosses the connection is
// a frame: an 8-byte header followed by a payload.
//
// Frame header (little-endian):
//
//	[0:2]  magic 0x4846 ("HF")
//	[2]    frame type
//	[3]    protocol version (ProtocolVersion)
//	[4:8]  payload length
//
// The version byte is all the negotiation there is: each message has one
// layout per version, every frame names the version it was written in, and
// a reader refuses any other before it looks at the payload — no hello
// frame, no capability exchange, no per-connection state.
//
// Requests (client → server) name a table and optionally a column as
// length-prefixed strings. Scan responses are a sequence of FramePagesCk
// frames — each payload is a whole number of raw 8 KiB page images, exactly
// the bytes storage holds, followed by one CRC32C per page — terminated by a
// FrameScanEnd summary. The page bytes are deliberately transparent: the
// serving path relays storage bytes unchanged, the way the paper's splitter
// does, and every statistic is computed from a copy on the side.

// FrameMagic identifies a protocol frame.
const FrameMagic uint16 = 0x4846

// ProtocolVersion is the one wire version this build speaks, carried in
// byte 3 of every frame header. Changing any payload layout means bumping
// it; peers at different versions refuse each other's first frame.
const ProtocolVersion uint8 = 1

// FrameHeaderSize is the fixed size of a frame header in bytes.
const FrameHeaderSize = 8

// MaxPayload bounds a frame payload; larger lengths are rejected before any
// allocation, so a corrupt or hostile header cannot balloon memory.
const MaxPayload = 1 << 20

// maxNameLen bounds table/column identifiers on the wire.
const maxNameLen = 256

// maxListEntries bounds repeated sections in list-shaped payloads.
const maxListEntries = 4096

// Frame types. Requests are low numbers, responses high.
const (
	// FrameScan requests a table scan: payload is a ScanRequest.
	FrameScan uint8 = 1
	// FrameStats requests a column's catalog entry: payload is a ScanRequest.
	FrameStats uint8 = 2
	// FrameList requests the table listing: empty payload.
	FrameList uint8 = 3
	// FrameTraceReport is the client's span trailer: after a traced scan
	// completes, the client ships the spans it recorded (dial, request,
	// stream, backoff…) back to the server so /traces can assemble the whole
	// tree. It is strictly fail-open and strictly one-way: the server NEVER
	// replies to it — not even with FrameError on a malformed payload —
	// because the client does not read a response, and any reply would be
	// consumed as the answer to the client's next request, desynchronising
	// the stream.
	FrameTraceReport uint8 = 4

	// FrameScanEnd terminates a scan: payload is a ScanSummary.
	FrameScanEnd uint8 = 17
	// FrameStatsResult answers FrameStats: payload is a StatsResult.
	FrameStatsResult uint8 = 18
	// FrameTables answers FrameList: payload is a table list.
	FrameTables uint8 = 19
	// FrameError reports a request failure: payload is a code and message.
	FrameError uint8 = 20
	// FramePagesCk carries raw page images followed by a checksum trailer:
	// for N pages the payload is N×8 KiB of page bytes and then N
	// little-endian uint32 CRC32C values, one per page, computed by storage
	// at encode time. The page bytes themselves are what storage holds — the
	// trailer lets any consumer detect a page corrupted in flight without
	// changing the data layout.
	FramePagesCk uint8 = 21
	// FrameResumeInfo opens a resumed scan's response (Offset > 0): the
	// payload is one little-endian uint32, the page index the server will
	// actually stream from. The server aligns every resume down to a frame
	// boundary so the page frames it re-sends are byte-identical to the
	// original delivery; the client skips the pages it already holds. A
	// zero-offset scan never carries this frame.
	FrameResumeInfo uint8 = 22
)

// PageChecksumSize is the per-page trailer cost of a FramePagesCk frame.
const PageChecksumSize = 4

// ErrBadFrame reports a malformed frame or payload.
var ErrBadFrame = errors.New("server: bad protocol frame")

// errVersion marks, inside an ErrBadFrame, a well-formed header written in
// another protocol version: the one framing failure the server answers (one
// FrameError naming both versions) before it closes the connection.
var errVersion = errors.New("protocol version mismatch")

// Sentinel request failures, carried over the wire as error codes so the
// client can round-trip them through errors.Is.
var (
	// ErrUnknownTable reports a scan/stats request for an unregistered table.
	ErrUnknownTable = errors.New("histserved: unknown table")
	// ErrUnknownColumn reports a request for a column the table lacks.
	ErrUnknownColumn = errors.New("histserved: unknown column")
	// ErrNoStats reports a STATS request before any scan refreshed the column.
	ErrNoStats = errors.New("histserved: no statistics gathered yet")
	// ErrBadRequest reports an undecodable or out-of-protocol request.
	ErrBadRequest = errors.New("histserved: bad request")
)

// Wire error codes for the sentinels above.
const (
	codeInternal      uint16 = 0
	codeUnknownTable  uint16 = 1
	codeUnknownColumn uint16 = 2
	codeNoStats       uint16 = 3
	codeBadRequest    uint16 = 4
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    uint8
	Payload []byte
}

// appendHeader appends the header of a frame whose payload is n bytes long.
func appendHeader(dst []byte, typ uint8, n int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, FrameMagic)
	dst = append(dst, typ, ProtocolVersion)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendFrame appends the encoding of one frame to dst.
func AppendFrame(dst []byte, typ uint8, payload []byte) []byte {
	return append(appendHeader(dst, typ, len(payload)), payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds limit %d", ErrBadFrame, len(payload), MaxPayload)
	}
	var hdr [FrameHeaderSize]byte
	if _, err := w.Write(appendHeader(hdr[:0], typ, len(payload))); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, rejecting oversized payloads before
// allocating. It returns io.EOF only when the stream ends cleanly between
// frames.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, n, err := decodeHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// FrameReader is the receive side of a connection that carries page frames:
// one reusable buffer, filled straight from the connection, in which each
// frame is validated and handed out where the kernel put it. ReadFrame stays
// the reader for peers whose frames are small and must be owned (requests).
type FrameReader struct {
	r   io.Reader
	buf []byte
	// buf[pos:end] is read but not yet handed out: at most one frame header,
	// because fill never asks the connection for more than that past a frame.
	pos, end int
}

// NewFrameReader returns a FrameReader on r. The buffer starts at a size that
// fits every non-page reply and grows to the page-frame size on first need.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 4<<10)}
}

// Next returns the next frame, with ReadFrame's error contract: io.EOF only
// when the stream ends cleanly between frames, io.ErrUnexpectedEOF inside one,
// ErrBadFrame for a header that fails validation — before the buffer grows.
// The payload of a page frame (FramePagesCk) aliases the reader's buffer and
// is valid only until the next call; any other payload is a copy the caller
// owns, because reply decoders may retain sub-slices.
func (fr *FrameReader) Next() (Frame, error) {
	fr.end = copy(fr.buf, fr.buf[fr.pos:fr.end])
	fr.pos = 0
	if err := fr.fill(FrameHeaderSize); err != nil {
		return Frame{}, err
	}
	f, n, err := decodeHeader(fr.buf[:FrameHeaderSize])
	if err != nil {
		return Frame{}, err
	}
	total := FrameHeaderSize + n
	if err := fr.fill(total); err != nil {
		return Frame{}, err
	}
	fr.pos = total
	if f.Type == FramePagesCk {
		f.Payload = fr.buf[FrameHeaderSize:total:total]
	} else if n > 0 {
		f.Payload = append([]byte(nil), fr.buf[FrameHeaderSize:total]...)
	}
	return f, nil
}

// fill reads until buf[:need] is valid. Each read may run one header past
// need, so the next frame's header usually arrives with this frame's tail and
// no payload byte is ever moved after the kernel delivered it.
func (fr *FrameReader) fill(need int) error {
	limit := need + FrameHeaderSize
	if len(fr.buf) < limit {
		grown := make([]byte, limit)
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
	for fr.end < need {
		n, err := fr.r.Read(fr.buf[fr.end:limit])
		fr.end += n
		if err != nil && fr.end < need {
			if err == io.EOF && fr.end > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// decodeHeader validates a frame header and returns the declared payload
// length. The version check comes before the length is even read: a frame
// from another protocol version is refused whatever it claims to carry.
func decodeHeader(hdr []byte) (Frame, int, error) {
	if magic := binary.LittleEndian.Uint16(hdr[0:2]); magic != FrameMagic {
		return Frame{}, 0, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, magic)
	}
	if hdr[3] != ProtocolVersion {
		return Frame{}, 0, fmt.Errorf("%w: %w: frame is version %d, this build speaks version %d",
			ErrBadFrame, errVersion, hdr[3], ProtocolVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload %d exceeds limit %d", ErrBadFrame, n, MaxPayload)
	}
	return Frame{Type: hdr[2]}, int(n), nil
}

// DecodeFrame decodes one frame from the start of buf, returning the frame
// and the number of bytes consumed. The payload aliases buf.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < FrameHeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(buf))
	}
	f, n, err := decodeHeader(buf[:FrameHeaderSize])
	if err != nil {
		return Frame{}, 0, err
	}
	if len(buf)-FrameHeaderSize < n {
		return Frame{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadFrame, len(buf)-FrameHeaderSize, n)
	}
	f.Payload = buf[FrameHeaderSize : FrameHeaderSize+n]
	return f, FrameHeaderSize + n, nil
}

// ---- payload encodings ----

// EncodeResumeInfo serialises a FrameResumeInfo payload: the frame-aligned
// page index a resumed scan streams from.
func EncodeResumeInfo(startPage uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, startPage)
}

// DecodeResumeInfo parses a FrameResumeInfo payload.
func DecodeResumeInfo(buf []byte) (uint32, error) {
	d := wire.NewDecoder(buf, ErrBadFrame)
	start := d.U32()
	if err := d.Done(); err != nil {
		return 0, err
	}
	return start, nil
}

// ScanRequest names the relation and column of a SCAN or STATS request.
type ScanRequest struct {
	Table  string
	Column string
	// Offset is the page index to start streaming from: a client resuming
	// an interrupted scan passes the number of pages it already holds. Zero
	// is a full scan.
	Offset uint32
	// TraceID carries the distributed trace this scan continues; zero means
	// untraced.
	TraceID uint64
	// ParentSpanID is the client-side span the server's root span parents
	// under (the client's root scan span). Meaningful only with TraceID.
	ParentSpanID uint64
}

// scanRequestTail is the fixed part of a request after the two names:
// offset, trace ID, parent span ID.
const scanRequestTail = 4 + 8 + 8

// EncodeScanRequest serialises a request payload: table, column, offset,
// trace ID, parent span ID — every field, every time.
func EncodeScanRequest(req ScanRequest) []byte {
	out := make([]byte, 0, 4+len(req.Table)+len(req.Column)+scanRequestTail)
	out = wire.AppendStr16(out, req.Table)
	out = wire.AppendStr16(out, req.Column)
	out = binary.LittleEndian.AppendUint32(out, req.Offset)
	out = binary.LittleEndian.AppendUint64(out, req.TraceID)
	return binary.LittleEndian.AppendUint64(out, req.ParentSpanID)
}

// DecodeScanRequest parses a request payload.
func DecodeScanRequest(buf []byte) (ScanRequest, error) {
	d := wire.NewDecoder(buf, ErrBadFrame)
	req := ScanRequest{
		Table:        d.Str16(maxNameLen),
		Column:       d.Str16(maxNameLen),
		Offset:       d.U32(),
		TraceID:      d.U64(),
		ParentSpanID: d.U64(),
	}
	if err := d.Done(); err != nil {
		return ScanRequest{}, err
	}
	if req.Table == "" {
		return ScanRequest{}, fmt.Errorf("%w: empty table name", ErrBadFrame)
	}
	return req, nil
}

// TraceReport is a FrameTraceReport payload: the spans one client-side scan
// recorded, shipped back so the server can assemble the full tree.
type TraceReport struct {
	TraceID uint64
	Spans   []obs.Span
}

// traceReportSpanFixed is the fixed wire cost of one reported span beside
// its name: lane, start, duration, hw cycles, span ID, parent ID, flags.
const traceReportSpanFixed = 4 + 8 + 8 + 8 + 8 + 8 + 1

// MaxTraceReportSpans bounds the spans one trailer may carry; a client with
// more (pathological redial storms) truncates rather than overflow the
// count field or the payload limit. It is the tracer's own per-trace cap,
// so a whole trailer always fits the slot it is stored in.
const MaxTraceReportSpans = obs.MaxReportSpans

// EncodeTraceReport serialises a FrameTraceReport payload.
func EncodeTraceReport(r TraceReport) []byte {
	out := make([]byte, 0, 8+2+len(r.Spans)*(traceReportSpanFixed+16))
	out = binary.LittleEndian.AppendUint64(out, r.TraceID)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Spans)))
	for _, sp := range r.Spans {
		out = wire.AppendStr16(out, sp.Name)
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(sp.Lane)))
		out = binary.LittleEndian.AppendUint64(out, uint64(sp.StartNS))
		out = binary.LittleEndian.AppendUint64(out, uint64(sp.DurNS))
		out = binary.LittleEndian.AppendUint64(out, uint64(sp.HWCycles))
		out = binary.LittleEndian.AppendUint64(out, sp.SpanID)
		out = binary.LittleEndian.AppendUint64(out, sp.ParentID)
		var flags byte
		if sp.Retired {
			flags |= 1
		}
		out = append(out, flags)
	}
	return out
}

// DecodeTraceReport parses a FrameTraceReport payload. Same hostile-input
// posture as every other decoder here: counts and name lengths are bounded
// before any allocation, trailing bytes are rejected.
func DecodeTraceReport(buf []byte) (TraceReport, error) {
	d := wire.NewDecoder(buf, ErrBadFrame)
	r := TraceReport{TraceID: d.U64()}
	if r.TraceID == 0 {
		d.Fail("trace report with zero trace id")
	}
	n := d.Count(uint64(d.U16()), MaxTraceReportSpans, 2+traceReportSpanFixed)
	r.Spans = make([]obs.Span, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		sp := obs.Span{
			Name:     d.Str16(maxNameLen),
			Lane:     int(int32(d.U32())),
			StartNS:  int64(d.U64()),
			DurNS:    int64(d.U64()),
			HWCycles: int64(d.U64()),
			SpanID:   d.U64(),
			ParentID: d.U64(),
		}
		flags := d.U8()
		if flags&^byte(1) != 0 {
			// Reserved flag bits must be zero: rejecting them keeps
			// decode→encode byte-exact, which the fuzz harness enforces.
			d.Fail("trace report span %d reserved flag bits", i)
		}
		sp.Retired = flags&1 != 0
		r.Spans = append(r.Spans, sp)
	}
	if err := d.Done(); err != nil {
		return TraceReport{}, err
	}
	return r, nil
}

// ScanSummary closes a scan: what moved and what the movement bought.
type ScanSummary struct {
	// Pages and Bytes count the page images delivered to the client.
	Pages uint32
	Bytes uint64
	// Rows is the number of column values the side path binned (0 when the
	// side path was skipped or failed open).
	Rows uint64
	// Refreshed reports whether the scan installed a fresh histogram.
	Refreshed bool
	// Degraded reports that the side effect of this scan is incomplete: the
	// side path was skipped, cancelled, cut short by faults, or the
	// installed histogram undercounts. The page stream itself is unaffected
	// — degradation is strictly a statistics-quality signal. An undegraded
	// refreshed summary promises an exact histogram.
	Degraded bool
	// AccelCycles is the simulated accelerator completion time for this
	// scan (binning pipeline + histogram chain), in clock cycles.
	AccelCycles uint64
	// AccelSeconds is AccelCycles at the configured clock.
	AccelSeconds float64
	// SkippedTuples counts column values the side path could not bin
	// (quarantined pages plus bin-memory losses) when Degraded is set.
	SkippedTuples uint64
	// QuarantinedPages counts pages the side path skipped as damaged.
	QuarantinedPages uint32
	// LanesRetired counts side-path lanes the supervisor removed.
	LanesRetired uint32
	// Retries is not carried on the wire: the client fills it in with the
	// number of reconnect-and-resume rounds it needed to complete the scan.
	Retries uint32
}

// scanSummarySize is the fixed wire size of a ScanSummary.
const scanSummarySize = 53

// Summary flag bits (byte 20 of the encoding).
const (
	summaryFlagRefreshed byte = 1 << 0
	summaryFlagDegraded  byte = 1 << 1
)

// EncodeScanSummary serialises a FrameScanEnd payload.
func EncodeScanSummary(s ScanSummary) []byte {
	out := make([]byte, 0, scanSummarySize)
	out = binary.LittleEndian.AppendUint32(out, s.Pages)
	out = binary.LittleEndian.AppendUint64(out, s.Bytes)
	out = binary.LittleEndian.AppendUint64(out, s.Rows)
	var flags byte
	if s.Refreshed {
		flags |= summaryFlagRefreshed
	}
	if s.Degraded {
		flags |= summaryFlagDegraded
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, s.AccelCycles)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.AccelSeconds))
	out = binary.LittleEndian.AppendUint64(out, s.SkippedTuples)
	out = binary.LittleEndian.AppendUint32(out, s.QuarantinedPages)
	return binary.LittleEndian.AppendUint32(out, s.LanesRetired)
}

// DecodeScanSummary parses a FrameScanEnd payload.
func DecodeScanSummary(buf []byte) (ScanSummary, error) {
	d := wire.NewDecoder(buf, ErrBadFrame)
	s := ScanSummary{Pages: d.U32(), Bytes: d.U64(), Rows: d.U64()}
	flags := d.U8()
	if flags&^(summaryFlagRefreshed|summaryFlagDegraded) != 0 {
		d.Fail("bad summary flags %#x", flags)
	}
	s.Refreshed = flags&summaryFlagRefreshed != 0
	s.Degraded = flags&summaryFlagDegraded != 0
	s.AccelCycles, s.AccelSeconds = d.U64(), math.Float64frombits(d.U64())
	s.SkippedTuples, s.QuarantinedPages, s.LanesRetired = d.U64(), d.U32(), d.U32()
	if err := d.Done(); err != nil {
		return ScanSummary{}, err
	}
	return s, nil
}

// StatsResult is a STATS response: the catalog entry plus the histogram's
// own binary encoding (hist.Histogram.MarshalBinary) and the serialized
// sketch blocks the same scan refreshed (internal/sketch encodings), both
// carried opaquely. The server answers from the entry's bytes instead
// (appendStatsHead); the client decodes with DecodeStatsResult.
type StatsResult struct {
	RowCount  int64
	NDistinct int64
	Version   uint64
	Histogram []byte
	// Sketches carries the catalog entry's serialized statistic blocks.
	// Empty for servers running with the chain disabled.
	Sketches [][]byte
}

// statsResultFixed is the payload's fixed head: row count, distinct count,
// catalog version, histogram length.
const statsResultFixed = 8 + 8 + 8 + 4

// EncodeStatsResult serialises a FrameStatsResult payload: the fixed head,
// the histogram, then a counted list of length-prefixed sketch encodings
// (count zero when there are none).
func EncodeStatsResult(s StatsResult) []byte {
	out := make([]byte, 0, statsResultFixed+len(s.Histogram)+2)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.RowCount))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.NDistinct))
	out = binary.LittleEndian.AppendUint64(out, s.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Histogram)))
	out = append(out, s.Histogram...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Sketches)))
	for _, raw := range s.Sketches {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(raw)))
		out = append(out, raw...)
	}
	return out
}

// statsEntryHead is the fixed head of an encoded catalog entry
// (dbms.AppendColumnStats): ndistinct, rowcount, version.
const statsEntryHead = 8 + 8 + 8

// appendStatsHead appends the frame header and payload head of the
// FrameStatsResult answering with entry, a catalog entry's encoded bytes.
// The two heads differ only in the order of their first two fields, and past
// them both layouts are the histogram and sketch list, so the frame is this
// then entry[24:]: the bytes EncodeStatsResult makes of the entry's parts.
func appendStatsHead(dst, entry []byte) []byte {
	dst = appendHeader(dst, FrameStatsResult, len(entry))
	dst = append(dst, entry[8:16]...) // rowcount
	dst = append(dst, entry[0:8]...)  // ndistinct
	return append(dst, entry[16:statsEntryHead]...)
}

// DecodeStatsResult parses a FrameStatsResult payload. The histogram and
// sketch bytes alias buf and are not themselves validated here — the client
// decodes them with hist.Histogram.UnmarshalBinary and sketch.Decode, which
// detect corruption.
func DecodeStatsResult(buf []byte) (StatsResult, error) {
	d := wire.NewDecoder(buf, ErrBadFrame)
	s := StatsResult{RowCount: int64(d.U64()), NDistinct: int64(d.U64()), Version: d.U64()}
	s.Histogram = d.Bytes(int(d.U32()))
	n := d.Count(uint64(d.U16()), maxListEntries, 4)
	for i := 0; i < n; i++ {
		s.Sketches = append(s.Sketches, d.Bytes(int(d.U32())))
	}
	if err := d.Done(); err != nil {
		return StatsResult{}, err
	}
	return s, nil
}

// TableInfo is one entry of the table listing.
type TableInfo struct {
	Name string
	Rows int64
	// Columns lists every column of the schema.
	Columns []string
	// StatsColumns lists the columns whose histograms are currently in the
	// catalog — i.e. the columns some served scan has already refreshed.
	StatsColumns []string
}

// EncodeTableList serialises a FrameTables payload.
func EncodeTableList(tables []TableInfo) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint16(out, uint16(len(tables)))
	for _, t := range tables {
		out = wire.AppendStr16(out, t.Name)
		out = binary.LittleEndian.AppendUint64(out, uint64(t.Rows))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t.Columns)))
		for _, c := range t.Columns {
			out = wire.AppendStr16(out, c)
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t.StatsColumns)))
		for _, c := range t.StatsColumns {
			out = wire.AppendStr16(out, c)
		}
	}
	return out
}

// tableInfoMin is the smallest encoding of one table-list entry: an empty
// name, the row count and two empty column lists.
const tableInfoMin = 2 + 8 + 2 + 2

// DecodeTableList parses a FrameTables payload.
func DecodeTableList(buf []byte) ([]TableInfo, error) {
	d := wire.NewDecoder(buf, ErrBadFrame)
	names := func() []string {
		var out []string
		for j, n := 0, d.Count(uint64(d.U16()), maxListEntries, 2); j < n; j++ {
			out = append(out, d.Str16(maxNameLen))
		}
		return out
	}
	tables := make([]TableInfo, d.Count(uint64(d.U16()), maxListEntries, tableInfoMin))
	for i := range tables {
		tables[i] = TableInfo{Name: d.Str16(maxNameLen), Rows: int64(d.U64()), Columns: names(), StatsColumns: names()}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return tables, nil
}

// EncodeError serialises a FrameError payload from an error, mapping the
// protocol sentinels to stable codes.
func EncodeError(err error) []byte {
	code := codeInternal
	switch {
	case errors.Is(err, ErrUnknownTable):
		code = codeUnknownTable
	case errors.Is(err, ErrUnknownColumn):
		code = codeUnknownColumn
	case errors.Is(err, ErrNoStats):
		code = codeNoStats
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrBadFrame):
		code = codeBadRequest
	}
	msg := err.Error()
	if len(msg) > MaxPayload-2 {
		msg = msg[:MaxPayload-2]
	}
	out := make([]byte, 0, 2+len(msg))
	out = binary.LittleEndian.AppendUint16(out, code)
	return append(out, msg...)
}

// DecodeError reconstructs the error carried by a FrameError payload. The
// result wraps the matching sentinel so errors.Is works across the wire.
func DecodeError(buf []byte) error {
	d := wire.NewDecoder(buf, ErrBadFrame)
	code := d.U16()
	msg := string(d.Rest())
	if err := d.Err(); err != nil {
		return err
	}
	var sentinel error
	switch code {
	case codeUnknownTable:
		sentinel = ErrUnknownTable
	case codeUnknownColumn:
		sentinel = ErrUnknownColumn
	case codeNoStats:
		sentinel = ErrNoStats
	case codeBadRequest:
		sentinel = ErrBadRequest
	default:
		return fmt.Errorf("histserved: server error: %s", msg)
	}
	return fmt.Errorf("%w (%s)", sentinel, msg)
}
