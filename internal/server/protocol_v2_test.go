package server

import (
	"bytes"
	"testing"
)

// The scan summary must round-trip every robustness field.
func TestScanSummaryV2RoundTrip(t *testing.T) {
	in := ScanSummary{
		Pages:            7,
		Bytes:            7 * 8192,
		Rows:             3500,
		Refreshed:        true,
		Degraded:         true,
		AccelCycles:      123456,
		AccelSeconds:     0.125,
		SkippedTuples:    42,
		QuarantinedPages: 3,
		LanesRetired:     1,
	}
	raw := EncodeScanSummary(in)
	if len(raw) != scanSummarySize {
		t.Fatalf("encoded %d bytes, want %d", len(raw), scanSummarySize)
	}
	out, err := DecodeScanSummary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

// Unknown summary flag bits must be rejected, not silently dropped: a
// future peer that needs a new bit understood will get an error, not a
// summary that quietly means something else.
func TestScanSummaryRejectsUnknownFlags(t *testing.T) {
	raw := EncodeScanSummary(ScanSummary{Refreshed: true})
	raw[20] |= 0x80
	if _, err := DecodeScanSummary(raw); err == nil {
		t.Fatal("decoder accepted an unknown flag bit")
	}
}

// The resume offset is a fixed field of the request, not an optional
// trailer: a full scan and a resumed one encode to the same length and differ
// only in those four bytes.
func TestScanRequestOffsetRoundTrip(t *testing.T) {
	plain := EncodeScanRequest(ScanRequest{Table: "t", Column: "c"})
	got, err := DecodeScanRequest(plain)
	if err != nil || got.Offset != 0 {
		t.Fatalf("full-scan request: %+v, %v", got, err)
	}

	resumed := EncodeScanRequest(ScanRequest{Table: "t", Column: "c", Offset: 99})
	if len(resumed) != len(plain) {
		t.Fatalf("resumed request is %d bytes, full-scan request %d", len(resumed), len(plain))
	}
	at := len(plain) - scanRequestTail
	if !bytes.Equal(resumed[:at], plain[:at]) || !bytes.Equal(resumed[at+4:], plain[at+4:]) {
		t.Fatalf("requests differ outside the offset field:\n% x\n% x", plain, resumed)
	}
	got, err = DecodeScanRequest(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != "t" || got.Column != "c" || got.Offset != 99 {
		t.Fatalf("offset round trip: %+v", got)
	}
}
