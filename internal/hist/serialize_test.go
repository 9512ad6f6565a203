package hist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	vals := zipfValues(20000, 500, 0.9, 61)
	for _, h := range []*Histogram{
		BuildEquiDepth(buildVec(vals), 32),
		BuildMaxDiff(buildVec(vals), 16),
		BuildCompressed(buildVec(vals), 8, 16),
		BuildEquiWidth(buildVec(vals), 10),
		{Kind: EquiDepth}, // empty
	} {
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Histogram
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%v: %v", h.Kind, err)
		}
		if back.Kind != h.Kind || back.Total != h.Total || back.DistinctTotal != h.DistinctTotal {
			t.Errorf("%v: header fields differ", h.Kind)
		}
		if len(back.Buckets) != len(h.Buckets) || len(back.Frequent) != len(h.Frequent) {
			t.Fatalf("%v: lengths differ", h.Kind)
		}
		for i := range h.Buckets {
			if back.Buckets[i] != h.Buckets[i] {
				t.Errorf("%v: bucket %d differs", h.Kind, i)
			}
		}
		for i := range h.Frequent {
			if back.Frequent[i] != h.Frequent[i] {
				t.Errorf("%v: frequent %d differs", h.Kind, i)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var h Histogram
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 23), // right size for header, wrong magic
	}
	for i, data := range cases {
		if err := h.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Valid prefix with trailing junk.
	good, _ := BuildEquiDepth(buildVec([]int64{1, 2, 3}), 2).MarshalBinary()
	if err := h.UnmarshalBinary(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Truncated frequent section.
	comp, _ := BuildCompressed(buildVec([]int64{1, 1, 1, 2, 3}), 1, 2).MarshalBinary()
	if err := h.UnmarshalBinary(comp[:len(comp)-5]); err == nil {
		t.Error("truncated stream accepted")
	}
	// Every strict prefix, and a frequent count of 2³²−1 (a 64 GiB list if
	// it were allocated before the bytes behind it were checked).
	for n := 0; n < len(comp); n++ {
		if err := h.UnmarshalBinary(comp[:n]); !errors.Is(err, ErrCorruptHistogram) {
			t.Fatalf("%d-byte prefix of %d: got %v, want ErrCorruptHistogram", n, len(comp), err)
		}
	}
	huge := bytes.Clone(comp)
	binary.LittleEndian.PutUint32(huge[29:], math.MaxUint32)
	if err := h.UnmarshalBinary(huge); !errors.Is(err, ErrCorruptHistogram) {
		t.Errorf("frequent count 2³²−1: got %v, want ErrCorruptHistogram", err)
	}
	// Unknown kind byte.
	bad := append([]byte(nil), good...)
	bad[3] = 99
	if err := h.UnmarshalBinary(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	// An image from before the version byte existed (kind 0 straight after
	// the magic, then total, distinct and two empty sections) is refused by
	// version, not migrated.
	old := append([]byte("SH\x00"), make([]byte, 24)...)
	err := h.UnmarshalBinary(old)
	if !errors.Is(err, ErrCorruptHistogram) || !strings.Contains(err.Error(), "version 0x0") {
		t.Errorf("unversioned image: got %v, want ErrCorruptHistogram naming version 0x0", err)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(raw []uint8, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		h := BuildCompressed(buildVec(vals), int(b%5)+1, int(b%7)+2)
		data, err := h.MarshalBinary()
		if err != nil {
			return false
		}
		var back Histogram
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		out, err := back.MarshalBinary()
		if err != nil {
			return false
		}
		if len(out) != len(data) {
			return false
		}
		for i := range out {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileUniform(t *testing.T) {
	vals := make([]int64, 0, 1000)
	for v := int64(0); v < 100; v++ {
		for c := 0; c < 10; c++ {
			vals = append(vals, v)
		}
	}
	h := BuildEquiDepth(buildVec(vals), 10)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q * 100
		if math.Abs(float64(got)-want) > 6 {
			t.Errorf("Quantile(%v) = %d, want ≈%.0f", q, got, want)
		}
	}
	if v, err := h.Quantile(0); err != nil || v != 0 {
		t.Errorf("Quantile(0) = %d, %v", v, err)
	}
	if v, err := h.Quantile(1); err != nil || v != 99 {
		t.Errorf("Quantile(1) = %d, %v", v, err)
	}
}

func TestQuantileMatchesExactOnSkewedData(t *testing.T) {
	vals := zipfValues(50000, 1000, 0.9, 62)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := BuildEquiDepth(buildVec(vals), 128)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		exact := sorted[int(q*float64(len(sorted)-1))]
		// The approximate quantile must land within a small neighbourhood
		// of the exact one in *rank* terms: count how many rows are below
		// each and compare.
		rankOf := func(v int64) int {
			return sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
		}
		diff := math.Abs(float64(rankOf(got)-rankOf(exact))) / float64(len(sorted))
		if diff > 0.02 {
			t.Errorf("Quantile(%v): rank off by %.3f of the data", q, diff)
		}
	}
}

func TestQuantileCompressedIncludesFrequent(t *testing.T) {
	// 90% of the mass on one frequent value: the median must be it.
	vals := make([]int64, 0, 1000)
	for i := 0; i < 900; i++ {
		vals = append(vals, 500)
	}
	for v := int64(0); v < 100; v++ {
		vals = append(vals, v)
	}
	h := BuildCompressed(buildVec(vals), 1, 8)
	got, err := h.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Errorf("median = %d, want the heavy hitter 500", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	var empty Histogram
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("quantile of empty histogram succeeded")
	}
	h := BuildEquiDepth(buildVec([]int64{1, 2, 3}), 2)
	if _, err := h.Quantile(-0.1); err == nil {
		t.Error("negative quantile accepted")
	}
	if _, err := h.Quantile(1.1); err == nil {
		t.Error("quantile > 1 accepted")
	}
}
