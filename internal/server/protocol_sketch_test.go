package server

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The STATS payload is sectioned whether or not there are sketches: a
// sketch-free entry carries a zero count, not a different layout.
func TestStatsResultSketchV2RoundTrip(t *testing.T) {
	s := StatsResult{
		RowCount:  100,
		NDistinct: 42,
		Version:   3,
		Histogram: []byte{0x53, 0x48, 9, 9, 9},
		Sketches:  [][]byte{{0x53, 0x4B, 1}, {}, {0xAA, 0xBB, 0xCC, 0xDD}},
	}
	back, err := DecodeStatsResult(EncodeStatsResult(s))
	if err != nil {
		t.Fatal(err)
	}
	if back.RowCount != s.RowCount || back.NDistinct != s.NDistinct || back.Version != s.Version {
		t.Fatalf("header drifted: %+v", back)
	}
	if !bytes.Equal(back.Histogram, s.Histogram) {
		t.Fatal("histogram bytes drifted through v2")
	}
	if len(back.Sketches) != len(s.Sketches) {
		t.Fatalf("sketch count %d, want %d", len(back.Sketches), len(s.Sketches))
	}
	for i := range s.Sketches {
		if !bytes.Equal(back.Sketches[i], s.Sketches[i]) {
			t.Fatalf("sketch %d drifted", i)
		}
	}

	s.Sketches = nil
	bare := EncodeStatsResult(s)
	if want := statsResultFixed + len(s.Histogram) + 2; len(bare) != want {
		t.Fatalf("sketch-free payload is %d bytes, want %d (head, histogram, zero count)", len(bare), want)
	}
	back, err = DecodeStatsResult(bare)
	if err != nil || len(back.Sketches) != 0 || !bytes.Equal(back.Histogram, s.Histogram) {
		t.Fatalf("sketch-free round trip: %+v (%v)", back, err)
	}
	// The histogram is a counted section, never "the rest of the payload".
	if _, err := DecodeStatsResult(append(bare[:24:24], s.Histogram...)); err == nil {
		t.Fatal("a head followed by bare histogram bytes decoded")
	}
}

func TestStatsResultV2RejectsCorruption(t *testing.T) {
	valid := EncodeStatsResult(StatsResult{
		RowCount:  5,
		Histogram: []byte{0x53, 1, 2},
		Sketches:  [][]byte{{9, 9}, {8}},
	})
	cases := map[string][]byte{
		"truncated_hist_len":     valid[:27],
		"truncated_mid_hist":     valid[:statsResultFixed+2],
		"truncated_sketch_count": valid[:statsResultFixed+3+1],
		"truncated_mid_sketch":   valid[:len(valid)-1],
		"trailing_bytes":         append(append([]byte(nil), valid...), 0x00),
	}
	for name, raw := range cases {
		if _, err := DecodeStatsResult(raw); err == nil {
			t.Errorf("%s: corrupt payload decoded without error", name)
		}
	}

	// A claimed sketch count beyond the list cap must be rejected before any
	// allocation happens.
	var huge []byte
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	huge = binary.LittleEndian.AppendUint16(huge, 0xFFFF)
	if _, err := DecodeStatsResult(huge); err == nil {
		t.Error("oversized sketch count decoded without error")
	}
}
