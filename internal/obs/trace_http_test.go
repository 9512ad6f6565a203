package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// /traces and /debug/tracez share the ?id= contract: 400 for a missing,
// malformed, or zero id; 404 for a well-formed id the tracer holds nothing
// for; 200 with the assembled tree otherwise (hex or decimal id).
func TestTraceEndpointsParamErrors(t *testing.T) {
	o := New()
	srv := httptest.NewServer(Handler(o, nil))
	defer srv.Close()

	for _, endpoint := range []string{"/traces", "/debug/tracez"} {
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"", 400},                     // missing id
			{"?id=", 400},                 // empty id
			{"?id=zz", 400},               // not hex, not decimal
			{"?id=0", 400},                // zero is the untraced sentinel
			{"?id=0x0", 400},              // zero in hex
			{"?id=deadbeef", 400},         // short hex needs the 0x prefix
			{"?id=00000000deadbeef", 404}, // well-formed, unknown
			{"?id=123456789", 404},        // decimal, unknown
		} {
			resp, body := get(t, srv, endpoint+tc.query)
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s%s = %d, want %d (%s)", endpoint, tc.query, resp.StatusCode, tc.want, body)
			}
		}
	}
}

func TestTraceEndpointsServeAssembledTrace(t *testing.T) {
	const traceID = uint64(0xabc123)
	o := New()
	clientRoot := DeriveSpanID(traceID, SpanSideClient, 0)
	o.Trace.Report(traceID, []Span{{Name: "scan", Lane: -1, StartNS: 10, DurNS: 50, SpanID: clientRoot}})
	st := StartScan(1, "server", "lineitem", "l_tax", 4)
	st.EnableTrace(traceID, clientRoot, SpanSideServer)
	st.End(st.Begin("accept"), 0)
	o.Trace.Publish(st)

	srv := httptest.NewServer(Handler(o, nil))
	defer srv.Close()

	// The id parses in canonical %016x, 0x-prefixed, and decimal forms.
	for _, q := range []string{
		fmt.Sprintf("%016x", traceID),
		fmt.Sprintf("%#x", traceID),
		fmt.Sprintf("%d", traceID),
	} {
		resp, body := get(t, srv, "/traces?id="+q)
		if resp.StatusCode != 200 {
			t.Fatalf("GET /traces?id=%s = %d: %s", q, resp.StatusCode, body)
		}
		var at AssembledTrace
		if err := json.Unmarshal(body, &at); err != nil {
			t.Fatalf("/traces?id=%s: %v", q, err)
		}
		if at.TraceID != traceID || at.ServerScans != 1 || at.ClientSpans != 1 {
			t.Fatalf("/traces?id=%s assembled %+v", q, at)
		}
	}

	resp, body := get(t, srv, fmt.Sprintf("/debug/tracez?id=%016x", traceID))
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/tracez = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("tracez content type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("tracez is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("tracez served no events for a known trace")
	}
}

// TestParseTraceIDRoundTrip: every ID the tools print as %016x parses back to
// itself, those written only in the digits 0-9, or 0-7 after a leading zero,
// included; 0x-prefixed IDs are hex and everything else is decimal.
func TestParseTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{0x1234567812345678, 0x0123456701234567, 0x9000000000000001, 0xabc123, 0, math.MaxUint64} {
		if got, err := ParseTraceID(fmt.Sprintf("%016x", id)); err != nil || got != id {
			t.Errorf("ParseTraceID(%016x) = %016x, %v", id, got, err)
		}
	}
	for _, tc := range []struct {
		s    string
		want uint64
	}{
		{"0x1234567812345678", 0x1234567812345678},
		{"0Xabc123", 0xabc123},
		{"123456789", 123456789},
		{"0755", 755},
		{"0", 0},
	} {
		if got, err := ParseTraceID(tc.s); err != nil || got != tc.want {
			t.Errorf("ParseTraceID(%q) = %d, %v; want %d", tc.s, got, err, tc.want)
		}
	}
	for _, s := range []string{"", "zz", "deadbeef", "0x", "zzzzzzzzzzzzzzzz"} {
		if got, err := ParseTraceID(s); err == nil {
			t.Errorf("ParseTraceID(%q) = %d, want an error", s, got)
		}
	}
}
