package hist

import (
	"testing"
)

// FuzzHistogramUnmarshal hammers the catalog-persistence decoder: arbitrary
// bytes must decode-or-error without panicking, and everything that decodes
// must re-encode identically.
func FuzzHistogramUnmarshal(f *testing.F) {
	h := BuildCompressed(buildVec([]int64{1, 1, 1, 2, 3, 3, 9}), 2, 3)
	good, _ := h.MarshalBinary()
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 23))
	f.Add(good[:len(good)-3])
	f.Add(append([]byte("SH\x00"), make([]byte, 24)...)) // the unversioned layout, refused
	f.Fuzz(func(t *testing.T, data []byte) {
		var back Histogram
		if err := back.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if len(out) != len(data) {
			t.Fatalf("round trip changed length: %d -> %d", len(data), len(out))
		}
		for i := range out {
			if out[i] != data[i] {
				t.Fatalf("byte %d changed across round trip", i)
			}
		}
		// Decoded histograms must be safe to query.
		back.EstimateEquals(0)
		back.EstimateRange(-10, 10)
		if back.Total > 0 && (len(back.Buckets) > 0 || len(back.Frequent) > 0) {
			if _, err := back.Quantile(0.5); err != nil {
				t.Fatalf("quantile on decoded histogram: %v", err)
			}
		}
	})
}
