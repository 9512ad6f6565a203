package hist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenFixtures are the catalog payload shapes worth pinning: every field
// populated, the degraded path, and the empty histogram.
func goldenFixtures() map[string]*Histogram {
	return map[string]*Histogram{
		"compressed_full": {
			Kind: Compressed,
			Frequent: []FrequentValue{
				{Value: 42, Count: 900},
				{Value: 7, Count: 350},
			},
			Buckets: []Bucket{
				{Low: 0, High: 99, Count: 500, Distinct: 80},
				{Low: 100, High: 255, Count: 250, Distinct: 41},
			},
			Total:         2000,
			DistinctTotal: 123,
		},
		"equidepth_degraded": {
			Kind: EquiDepth,
			Buckets: []Bucket{
				{Low: -50, High: -1, Count: 400, Distinct: 50},
				{Low: 0, High: 10, Count: 410, Distinct: 11},
			},
			Total:         810,
			DistinctTotal: 61,
			Degraded:      true,
			Skipped:       190,
		},
		"equiwidth_empty": {
			Kind: EquiWidth,
		},
	}
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding drifted from golden file (%d bytes vs %d).\n"+
			"If the format change is intentional, bump the version byte and add a new golden file.",
			name, len(got), len(want))
	}
}

// The v2 encoding of each fixture must match its pinned golden bytes and
// decode back to an Equal histogram (including Degraded and Skipped).
func TestGoldenRoundTrip(t *testing.T) {
	for name, h := range goldenFixtures() {
		t.Run(name, func(t *testing.T) {
			data, err := h.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			goldenCompare(t, name, data)
			var back Histogram
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !back.Equal(h) {
				t.Fatalf("round trip drift:\n got %s\nwant %s", back.String(), h.String())
			}
			if back.Degraded != h.Degraded || back.Skipped != h.Skipped {
				t.Fatalf("robustness fields lost: got (%v,%d) want (%v,%d)",
					back.Degraded, back.Skipped, h.Degraded, h.Skipped)
			}
		})
	}
}

// Equal must tell a degraded histogram from the same histogram without the
// mark.
func TestEqualDistinguishesDegraded(t *testing.T) {
	h := goldenFixtures()["equidepth_degraded"]
	clean := *h
	clean.Degraded = false
	clean.Skipped = 0
	if h.Equal(&clean) {
		t.Fatal("Equal ignores the Degraded/Skipped fields")
	}
}
