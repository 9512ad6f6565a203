package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSketchDecode feeds Decode — the entry point of DecodeBlocks, which
// faces the STATS wire and the catalog files — arbitrary bytes. It must never
// panic, must fail only with ErrCorruptSketch, and whatever it accepts must
// survive its own encoding: Decode(MarshalBinary(Decode(x))) encodes like
// Decode(x).
func FuzzSketchDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSketch) {
				t.Fatalf("Decode failed with a foreign error: %v", err)
			}
			return
		}
		first, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(first)
		if err != nil {
			t.Fatalf("Decode rejected MarshalBinary's output: %v", err)
		}
		second, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("decode → encode → decode → encode changed the bytes")
		}
	})
}

// The sparse HLL layout is "idx ascending": entries out of order, or a
// repeated idx (which used to overwrite the earlier rank silently), would
// re-encode to different bytes and are corrupt.
func TestDecodeRejectsUnorderedSparseHLL(t *testing.T) {
	build := func(idxs ...uint32) []byte {
		out := appendHeader(nil, KindHLL, false, int64(len(idxs)))
		out = append(out, 10, 0) // precision, sparse mode
		out = binary.LittleEndian.AppendUint32(out, uint32(len(idxs)))
		for _, idx := range idxs {
			out = binary.LittleEndian.AppendUint32(out, idx)
			out = append(out, 2)
		}
		return out
	}
	if _, err := Decode(build(0, 7, 900)); err != nil {
		t.Fatalf("ascending entries rejected: %v", err)
	}
	for name, raw := range map[string][]byte{
		"descending": build(900, 7),
		"duplicate":  build(7, 7),
	} {
		if _, err := Decode(raw); !errors.Is(err, ErrCorruptSketch) {
			t.Errorf("%s: Decode = %v, want ErrCorruptSketch", name, err)
		}
	}
}
