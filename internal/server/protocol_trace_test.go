package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"streamhist/internal/obs"
)

// A traced scan request round-trips, and tracing changes nothing about the
// request but the two ID fields: an untraced request is the same bytes with
// those fields zero.
func TestScanRequestTraceContextRoundTrip(t *testing.T) {
	req := ScanRequest{
		Table: "lineitem", Column: "l_tax", Offset: 96,
		TraceID: 0xdeadbeefcafef00d, ParentSpanID: 0x0123456789abcdef,
	}
	enc := EncodeScanRequest(req)
	got, err := DecodeScanRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
	untraced := req
	untraced.TraceID, untraced.ParentSpanID = 0, 0
	plain := EncodeScanRequest(untraced)
	if len(plain) != len(enc) || !bytes.Equal(plain[:len(plain)-16], enc[:len(enc)-16]) ||
		!bytes.Equal(plain[len(plain)-16:], make([]byte, 16)) {
		t.Fatalf("untraced request is not the traced one with zero IDs:\n% x\n% x", plain, enc)
	}
}

func TestTraceReportCodec(t *testing.T) {
	rep := TraceReport{
		TraceID: 0xf00d,
		Spans: []obs.Span{
			{Name: "scan", Lane: -1, StartNS: 100, DurNS: 900, SpanID: 4},
			{Name: "lane", Lane: 2, StartNS: 120, DurNS: 40, HWCycles: 33, SpanID: 5, ParentID: 4, Retired: true},
		},
	}
	enc := EncodeTraceReport(rep)
	got, err := DecodeTraceReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != rep.TraceID || len(got.Spans) != 2 ||
		got.Spans[0] != rep.Spans[0] || got.Spans[1] != rep.Spans[1] {
		t.Fatalf("round trip: %+v", got)
	}
	if !bytes.Equal(EncodeTraceReport(got), enc) {
		t.Fatal("re-encoding differs")
	}

	mutate := func(f func(b []byte) []byte) error {
		b := f(append([]byte(nil), enc...))
		_, err := DecodeTraceReport(b)
		return err
	}
	cases := map[string]func(b []byte) []byte{
		"short header":  func(b []byte) []byte { return b[:9] },
		"zero trace id": func(b []byte) []byte { copy(b[0:8], make([]byte, 8)); return b },
		"count overflow": func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:10], uint16(MaxTraceReportSpans+1))
			return b
		},
		"truncated span": func(b []byte) []byte { return b[:len(b)-3] },
		"trailing bytes": func(b []byte) []byte { return append(b, 0xff) },
		"reserved flags": func(b []byte) []byte { b[len(b)-1] |= 0x30; return b },
	}
	for name, f := range cases {
		if err := mutate(f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decoded with err %v, want ErrBadFrame", name, err)
		}
	}

	// An empty span list is well-formed (a client may have nothing to say).
	empty := EncodeTraceReport(TraceReport{TraceID: 1})
	if got, err := DecodeTraceReport(empty); err != nil || len(got.Spans) != 0 || got.TraceID != 1 {
		t.Fatalf("empty report: %+v (%v)", got, err)
	}
}
