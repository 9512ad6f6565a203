package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"streamhist/internal/obs"
)

// FuzzDecodeFrame hammers the wire decoder the way FuzzHistogramUnmarshal
// hammers the catalog decoder: arbitrary bytes must decode-or-error without
// panicking and without ballooning allocations, and every frame that
// decodes must re-encode identically. Decoded payloads are then pushed
// through every request/response payload parser, which must be equally
// panic-free on attacker-controlled bytes — and, because every message has
// exactly one layout, whatever a parser accepts must re-encode to the very
// bytes it was given.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, FrameScan, EncodeScanRequest(ScanRequest{Table: "lineitem", Column: "l_tax"})))
	f.Add(AppendFrame(nil, FrameScan, EncodeScanRequest(ScanRequest{
		Table: "lineitem", Column: "l_tax", Offset: 96,
		TraceID: 0xdeadbeefcafef00d, ParentSpanID: 0x0123456789abcdef,
	})))
	f.Add(AppendFrame(nil, FrameTraceReport, EncodeTraceReport(TraceReport{
		TraceID: 3,
		Spans: []obs.Span{
			{Name: "scan", Lane: -1, StartNS: 10, DurNS: 20, SpanID: 4, ParentID: 0},
			{Name: "lane", Lane: 2, StartNS: 12, DurNS: 5, HWCycles: 33, SpanID: 5, ParentID: 4, Retired: true},
		},
	})))
	f.Add(AppendFrame(nil, FrameScanEnd, EncodeScanSummary(ScanSummary{Pages: 2, Bytes: 16384, Rows: 99, Refreshed: true})))
	f.Add(AppendFrame(nil, FrameStatsResult, EncodeStatsResult(StatsResult{RowCount: 5, Histogram: []byte{1, 2}})))
	f.Add(AppendFrame(nil, FrameTables, EncodeTableList([]TableInfo{{Name: "t", Rows: 3, Columns: []string{"a"}}})))
	f.Add(AppendFrame(nil, FrameError, EncodeError(ErrNoStats)))
	f.Add([]byte{})
	f.Add([]byte{0x46, 0x48})
	good := AppendFrame(nil, FramePagesCk, bytes.Repeat([]byte{7}, 64))
	f.Add(good)
	f.Add(good[:len(good)-5])
	wrong := bytes.Clone(good) // Add keeps the slice it is given
	wrong[3] = ProtocolVersion + 1
	f.Add(wrong)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < FrameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Re-encoding must reproduce the consumed bytes exactly.
		back := AppendFrame(nil, fr.Type, fr.Payload)
		if !bytes.Equal(back, data[:n]) {
			t.Fatalf("frame did not round trip: % x -> % x", data[:n], back)
		}
		// Payload parsers must be total: decode-or-error, never panic.
		if req, err := DecodeScanRequest(fr.Payload); err == nil {
			if !bytes.Equal(EncodeScanRequest(req), fr.Payload) {
				t.Fatalf("scan request did not round trip")
			}
		}
		if sum, err := DecodeScanSummary(fr.Payload); err == nil {
			// Compare bytes, not structs: a NaN AccelSeconds fails != even
			// though Float64bits preserves its exact bit pattern.
			if !bytes.Equal(EncodeScanSummary(sum), fr.Payload) {
				t.Fatalf("scan summary did not round trip")
			}
		}
		if res, err := DecodeStatsResult(fr.Payload); err == nil {
			if !bytes.Equal(EncodeStatsResult(res), fr.Payload) {
				t.Fatalf("stats result did not round trip")
			}
		}
		if tables, err := DecodeTableList(fr.Payload); err == nil {
			if !bytes.Equal(EncodeTableList(tables), fr.Payload) {
				t.Fatalf("table list did not round trip")
			}
		}
		if rep, err := DecodeTraceReport(fr.Payload); err == nil {
			if !bytes.Equal(EncodeTraceReport(rep), fr.Payload) {
				t.Fatalf("trace report did not round trip")
			}
		}
		DecodeError(fr.Payload)
	})
}

// FuzzTraceReport follows a span trailer as far as attacker-controlled bytes
// can reach: decoded, stored by the tracer, assembled into a tree and rendered
// as the JSON /traces serves. Nothing on that path may panic, and however
// often the same trailer is replayed the tracer's slot for its trace ID stays
// within the per-trace cap.
func FuzzTraceReport(f *testing.F) {
	f.Add(EncodeTraceReport(TraceReport{TraceID: 1}), uint8(1))
	f.Add(EncodeTraceReport(TraceReport{
		TraceID: 0xf00d,
		Spans: []obs.Span{
			{Name: "scan", Lane: -1, StartNS: 100, DurNS: 900, SpanID: 4},
			{Name: "lane", Lane: 2, StartNS: 120, DurNS: 40, HWCycles: 33, SpanID: 5, ParentID: 4, Retired: true},
		},
	}), uint8(3))
	full := TraceReport{TraceID: 7, Spans: make([]obs.Span, MaxTraceReportSpans)}
	f.Add(EncodeTraceReport(full), uint8(2))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, replays uint8) {
		rep, err := DecodeTraceReport(payload)
		if err != nil {
			return
		}
		tracer := obs.NewTracer(4)
		for i := 0; i <= int(replays%4); i++ {
			tracer.Report(rep.TraceID, rep.Spans)
		}
		stored := tracer.Reported(rep.TraceID)
		if len(stored) > obs.MaxReportSpans {
			t.Fatalf("tracer holds %d spans for one trace, cap is %d", len(stored), obs.MaxReportSpans)
		}
		at := tracer.Assemble(rep.TraceID)
		if (at == nil) != (len(rep.Spans) == 0) {
			t.Fatalf("Assemble = %v for a report of %d spans", at, len(rep.Spans))
		}
		if at == nil {
			return
		}
		if at.ClientSpans != len(stored) || len(at.Spans) != len(stored) {
			t.Fatalf("assembled %d spans (%d client) from %d stored", len(at.Spans), at.ClientSpans, len(stored))
		}
		if _, err := json.Marshal(at); err != nil {
			t.Fatalf("assembled trace does not render: %v", err)
		}
	})
}
