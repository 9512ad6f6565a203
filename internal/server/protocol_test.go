package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"streamhist/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameScan, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if f.Type != FrameScan || !bytes.Equal(f.Payload, p) {
			t.Fatalf("round trip mismatch: type=%d len=%d want len=%d", f.Type, len(f.Payload), len(p))
		}
		// DecodeFrame must agree with the streaming reader.
		enc := AppendFrame(nil, FrameScan, p)
		df, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) || df.Type != FrameScan || !bytes.Equal(df.Payload, p) {
			t.Fatalf("DecodeFrame mismatch: %v n=%d", err, n)
		}
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	enc := AppendFrame(nil, FramePagesCk, []byte{1, 2, 3})
	enc[4] = 0xFF
	enc[5] = 0xFF
	enc[6] = 0xFF
	enc[7] = 0x7F // declares ~2 GiB
	if _, err := ReadFrame(bytes.NewReader(enc)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized payload: got %v, want ErrBadFrame", err)
	}
	if _, _, err := DecodeFrame(enc); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("DecodeFrame oversized payload: got %v, want ErrBadFrame", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	enc := AppendFrame(nil, FrameScan, nil)
	enc[0] = 0x00
	if _, err := ReadFrame(bytes.NewReader(enc)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: got %v, want ErrBadFrame", err)
	}
}

// A header at any protocol version but ours is refused by all three frame
// decoders, identically, with an ErrBadFrame that names both versions — and
// refused at the header: the declared payload is never allocated or read.
func TestFrameVersionMismatchRefused(t *testing.T) {
	for _, ver := range []uint8{0, 2, 255} {
		hdr := appendHeader(nil, FramePagesCk, MaxPayload) // a decoder that wanted the payload would hit EOF instead
		hdr[3] = ver
		want := fmt.Sprintf("frame is version %d, this build speaks version %d", ver, ProtocolVersion)

		_, rerr := ReadFrame(bytes.NewReader(hdr))
		fr := NewFrameReader(bytes.NewReader(hdr))
		size := len(fr.buf)
		_, nerr := fr.Next()
		_, _, derr := DecodeFrame(hdr)
		for name, err := range map[string]error{"ReadFrame": rerr, "FrameReader.Next": nerr, "DecodeFrame": derr} {
			if !errors.Is(err, ErrBadFrame) || !errors.Is(err, errVersion) || !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: %s returned %v, want ErrBadFrame naming both versions", ver, name, err)
			}
		}
		if len(fr.buf) != size {
			t.Errorf("version %d: FrameReader grew its buffer from %d to %d for a refused header", ver, size, len(fr.buf))
		}
	}
	// Every encoder stamps the version every decoder wants.
	var w bytes.Buffer
	if err := WriteFrame(&w, FrameList, nil); err != nil {
		t.Fatal(err)
	}
	if w.Bytes()[3] != ProtocolVersion || AppendFrame(nil, FrameList, nil)[3] != ProtocolVersion {
		t.Fatal("an encoder did not stamp ProtocolVersion into header byte 3")
	}
}

func TestReadFrameEOFSemantics(t *testing.T) {
	// A clean end between frames is io.EOF; a mid-frame end is unexpected.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	enc := AppendFrame(nil, FrameScan, []byte{1, 2, 3})
	for _, cut := range []int{1, FrameHeaderSize - 1, FrameHeaderSize + 1} {
		if _, err := ReadFrame(bytes.NewReader(enc[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestScanRequestRoundTrip(t *testing.T) {
	for _, req := range []ScanRequest{
		{Table: "lineitem", Column: "l_extendedprice"},
		{Table: "t", Column: ""},
		{Table: "t", Column: "c", Offset: 99},
		{Table: "t", Column: "c", Offset: 7, TraceID: 0xdeadbeefcafef00d, ParentSpanID: 11},
	} {
		back, err := DecodeScanRequest(EncodeScanRequest(req))
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if back != req {
			t.Fatalf("round trip changed request: %+v -> %+v", req, back)
		}
	}
}

func TestScanRequestRejects(t *testing.T) {
	good := EncodeScanRequest(ScanRequest{Table: "t", Column: "c", Offset: 5, TraceID: 9, ParentSpanID: 11})
	names := len(good) - scanRequestTail
	cases := map[string][]byte{
		"empty":         {},
		"empty table":   EncodeScanRequest(ScanRequest{Table: "", Column: "c"}),
		"trailing junk": append(bytes.Clone(good), 0xFF),
		"huge name len": {0xFF, 0xFF},
		// The request has one tail; every shorter one is malformed, the
		// names-only and names-plus-offset shapes included.
		"no tail":          good[:names],
		"offset-only tail": good[:names+4],
		"no parent span":   good[:names+12],
		"one byte short":   good[:len(good)-1],
	}
	for name, buf := range cases {
		if _, err := DecodeScanRequest(buf); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decoded with err %v, want ErrBadFrame", name, err)
		}
	}
}

func TestScanSummaryRoundTrip(t *testing.T) {
	s := ScanSummary{Pages: 7, Bytes: 7 * 8192, Rows: 7161, Refreshed: true, AccelCycles: 123456, AccelSeconds: 0.000823}
	back, err := DecodeScanSummary(EncodeScanSummary(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back != s {
		t.Fatalf("round trip changed summary: %+v -> %+v", s, back)
	}
	// The summary is one fixed size; every other length is malformed.
	enc := append(EncodeScanSummary(s), 0)
	for n := 0; n <= len(enc); n++ {
		if _, err := DecodeScanSummary(enc[:n]); (err == nil) != (n == scanSummarySize) {
			t.Fatalf("%d-byte summary: err %v", n, err)
		}
	}
}

func TestStatsResultRoundTrip(t *testing.T) {
	s := StatsResult{RowCount: 10, NDistinct: 3, Version: 2, Histogram: []byte{1, 2, 3, 4}}
	back, err := DecodeStatsResult(EncodeStatsResult(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.RowCount != s.RowCount || back.NDistinct != s.NDistinct ||
		back.Version != s.Version || !bytes.Equal(back.Histogram, s.Histogram) {
		t.Fatalf("round trip changed stats: %+v -> %+v", s, back)
	}
	if _, err := DecodeStatsResult(make([]byte, 23)); err == nil {
		t.Fatal("short stats result decoded without error")
	}
}

func TestTableListRoundTrip(t *testing.T) {
	tables := []TableInfo{
		{Name: "lineitem", Rows: 100, Columns: []string{"a", "b"}, StatsColumns: []string{"a"}},
		{Name: "empty", Rows: 0},
	}
	back, err := DecodeTableList(EncodeTableList(tables))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != len(tables) {
		t.Fatalf("got %d tables, want %d", len(back), len(tables))
	}
	for i := range tables {
		a, b := tables[i], back[i]
		if a.Name != b.Name || a.Rows != b.Rows ||
			strings.Join(a.Columns, ",") != strings.Join(b.Columns, ",") ||
			strings.Join(a.StatsColumns, ",") != strings.Join(b.StatsColumns, ",") {
			t.Fatalf("table %d changed: %+v -> %+v", i, a, b)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	for _, sentinel := range []error{ErrUnknownTable, ErrUnknownColumn, ErrNoStats, ErrBadRequest} {
		wrapped := DecodeError(EncodeError(sentinel))
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("sentinel %v lost across the wire: got %v", sentinel, wrapped)
		}
	}
	other := DecodeError(EncodeError(errors.New("disk on fire")))
	if other == nil || !strings.Contains(other.Error(), "disk on fire") {
		t.Fatalf("generic error lost its message: %v", other)
	}
}

// Every strict prefix of a valid payload fails with ErrBadFrame, without a
// panic, in each variable-length decoder.
func TestPayloadPrefixesRejected(t *testing.T) {
	decoders := map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"ScanRequest": {
			EncodeScanRequest(ScanRequest{Table: "lineitem", Column: "l_tax", Offset: 5, TraceID: 9, ParentSpanID: 11}),
			func(b []byte) error { _, err := DecodeScanRequest(b); return err },
		},
		"TraceReport": {
			EncodeTraceReport(TraceReport{TraceID: 3, Spans: []obs.Span{
				{Name: "scan", Lane: -1, StartNS: 10, DurNS: 20, SpanID: 4},
				{Name: "lane", Lane: 2, SpanID: 5, ParentID: 4, Retired: true},
			}}),
			func(b []byte) error { _, err := DecodeTraceReport(b); return err },
		},
		"StatsResult": {
			EncodeStatsResult(StatsResult{RowCount: 5, NDistinct: 2, Version: 1, Histogram: []byte{1, 2, 3}, Sketches: [][]byte{{4}, {}, {5, 6}}}),
			func(b []byte) error { _, err := DecodeStatsResult(b); return err },
		},
		"TableList": {
			EncodeTableList([]TableInfo{{Name: "t", Rows: 3, Columns: []string{"a", "b"}, StatsColumns: []string{"a"}}, {Name: "u"}}),
			func(b []byte) error { _, err := DecodeTableList(b); return err },
		},
	}
	for name, c := range decoders {
		if err := c.decode(c.enc); err != nil {
			t.Fatalf("%s: whole encoding rejected: %v", name, err)
		}
		for n := 0; n < len(c.enc); n++ {
			if err := c.decode(c.enc[:n]); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: %d-byte prefix of %d: err %v, want ErrBadFrame", name, n, len(c.enc), err)
			}
		}
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged.
func allocBytes(f func()) uint64 {
	const runs = 100
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// A count is checked against the bytes left before anything is allocated
// for it: a 10-byte trace report claiming 4 096 spans, which any client may
// send and the server never answers, and a 2-byte table list claiming 4 096
// tables are refused for the price of their error.
func TestHostileCountsAllocateLittle(t *testing.T) {
	report := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint64(nil, 1), MaxTraceReportSpans)
	list := binary.LittleEndian.AppendUint16(nil, maxListEntries)
	for name, decode := range map[string]func() error{
		"trace report": func() error { _, err := DecodeTraceReport(report); return err },
		"table list":   func() error { _, err := DecodeTableList(list); return err },
	} {
		if err := decode(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err %v, want ErrBadFrame", name, err)
		}
		b := allocBytes(func() { _ = decode() })
		if b >= 1024 {
			t.Errorf("%s: refusing the count allocated %d B per call, want < 1 KiB", name, b)
		}
		t.Logf("%s: %d B per refused call", name, b)
	}
}
