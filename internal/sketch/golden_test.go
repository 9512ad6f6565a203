package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenFixtures pin every on-wire shape of the v1 sketch encoding: both HLL
// representations, a SpaceSaving summary that has evicted, a partially filled
// window, and a degraded block. Construction is fully deterministic, so the
// bytes are stable across runs and Go versions.
func goldenFixtures() map[string]StatBlock {
	hllSparse := NewHLL(12)
	for i := int64(0); i < 5; i++ {
		hllSparse.Push(i, i*1000)
	}

	hllDense := NewHLL(4) // m=16, promotes after 2 touched registers
	for i := int64(0); i < 64; i++ {
		hllDense.Push(i, i)
	}

	ss := NewSpaceSaving(4)
	for pos, v := range []int64{1, 1, 1, 2, 2, 3, 4, 5} { // 5 evicts a min
		ss.Push(int64(pos), v)
	}

	win := NewWindow(8)
	for i := int64(0); i < 5; i++ {
		win.Push(i, i*i-3)
	}

	winDeg := NewWindow(4)
	for i := int64(0); i < 6; i++ {
		winDeg.Push(i, i)
	}
	winDeg.MarkDegraded()

	return map[string]StatBlock{
		"hll_sparse":      hllSparse,
		"hll_dense":       hllDense,
		"spacesaving":     ss,
		"window_partial":  win,
		"window_degraded": winDeg,
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

// Every fixture's encoding must match its pinned bytes, decode back to equal
// state, and re-encode to identical bytes (the canonical-order property the
// parallel ≡ serial comparisons rely on).
func TestGoldenRoundTrip(t *testing.T) {
	for name, b := range goldenFixtures() {
		t.Run(name, func(t *testing.T) {
			data, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			goldenCompare(t, name, data)

			// The version byte sits right after the 2-byte magic.
			if data[2] != sketchVersion1 {
				t.Fatalf("version byte = %#x, want %#x", data[2], sketchVersion1)
			}

			back, err := Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back.Kind() != b.Kind() || back.Items() != b.Items() || back.Degraded() != b.Degraded() {
				t.Fatalf("round trip lost header state: got (%v,%d,%v) want (%v,%d,%v)",
					back.Kind(), back.Items(), back.Degraded(), b.Kind(), b.Items(), b.Degraded())
			}
			again, err := back.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatal("decode → encode is not byte-identical")
			}
		})
	}
}

// buildV1HLL hand-assembles a v1 sparse HLL payload byte by byte, straight
// from the layout comment in serialize.go — NOT via MarshalBinary. If the
// decoder ever drifts from the spec, this catches it independently of the
// encoder; it is also exactly what "keep reading every older version" means
// once a v2 exists.
func buildV1HLL() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint16(out, 0x4B53) // magic "SK"
	out = append(out, 0x01)                             // version 1
	out = append(out, 0x01)                             // kind hll
	out = append(out, 0x00)                             // flags: clean
	out = binary.LittleEndian.AppendUint64(out, 3)      // items
	out = append(out, 10)                               // precision
	out = append(out, 0)                                // sparse mode
	out = binary.LittleEndian.AppendUint32(out, 2)      // 2 pairs
	out = binary.LittleEndian.AppendUint32(out, 7)      // idx 7
	out = append(out, 3)                                //   rank 3
	out = binary.LittleEndian.AppendUint32(out, 900)    // idx 900
	out = append(out, 1)                                //   rank 1
	return out
}

func TestGoldenV1ForwardDecode(t *testing.T) {
	raw := buildV1HLL()
	goldenCompare(t, "hll_v1_handbuilt", raw)
	b, err := Decode(raw)
	if err != nil {
		t.Fatalf("hand-built v1 payload rejected: %v", err)
	}
	h, ok := b.(*HLL)
	if !ok {
		t.Fatalf("decoded %T, want *HLL", b)
	}
	if h.Precision() != 10 || h.Items() != 3 || h.Degraded() || h.dense {
		t.Fatalf("v1 decode drift: p=%d items=%d degraded=%v sparse=%v",
			h.Precision(), h.Items(), h.Degraded(), !h.dense)
	}
	if h.regs[7] != 3 || h.regs[900] != 1 {
		t.Fatal("v1 decode lost register state")
	}
}

// Corrupt inputs must error with ErrCorruptSketch, never construct a block.
func TestDecodeRejectsCorruptInput(t *testing.T) {
	valid := buildV1HLL()
	mutate := func(mod func(b []byte) []byte) []byte {
		c := append([]byte(nil), valid...)
		return mod(c)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short_header":   valid[:5],
		"bad_magic":      mutate(func(b []byte) []byte { b[0] = 0xFF; return b }),
		"future_version": mutate(func(b []byte) []byte { b[2] = 0x02; return b }),
		"unknown_kind":   mutate(func(b []byte) []byte { b[3] = 0x77; return b }),
		"bad_flags":      mutate(func(b []byte) []byte { b[5-1] = 0xF0; return b }),
		"truncated_body": valid[:len(valid)-3],
		"trailing_bytes": append(append([]byte(nil), valid...), 0xAA),
		"precision_oob":  mutate(func(b []byte) []byte { b[13] = 99; return b }),
	}
	for name, raw := range cases {
		if _, err := Decode(raw); !errors.Is(err, ErrCorruptSketch) {
			t.Errorf("%s: Decode = %v, want ErrCorruptSketch", name, err)
		}
	}
}

// Every strict prefix of each fixture's encoding fails with ErrCorruptSketch,
// and so does an entry count of 2³²−1 in each kind's entry list, refused
// against the bytes left before anything is allocated for it.
func TestDecodeRejectsTruncationAndHugeCounts(t *testing.T) {
	fixtures := goldenFixtures()
	encoded := func(name string) []byte {
		raw, err := fixtures[name].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for name := range fixtures {
		raw := encoded(name)
		for n := 0; n < len(raw); n++ {
			if _, err := Decode(raw[:n]); !errors.Is(err, ErrCorruptSketch) {
				t.Fatalf("%s: %d-byte prefix of %d: got %v, want ErrCorruptSketch", name, n, len(raw), err)
			}
		}
	}
	// The count follows the 13-byte header and the kind's own fields:
	// precision and mode, or the capacity.
	for name, off := range map[string]int{"hll_sparse": headerSize + 2, "spacesaving": headerSize + 4, "window_partial": headerSize + 4} {
		raw := encoded(name)
		binary.LittleEndian.PutUint32(raw[off:], math.MaxUint32)
		if _, err := Decode(raw); !errors.Is(err, ErrCorruptSketch) {
			t.Errorf("%s: count 2³²−1: got %v, want ErrCorruptSketch", name, err)
		}
	}
	// SpaceSaving entries out of their count-descending order would
	// re-encode to other bytes.
	raw := encoded("spacesaving")
	first := headerSize + 8
	a, b := bytes.Clone(raw[first:first+24]), raw[first+24:first+48]
	copy(raw[first:], b)
	copy(raw[first+24:], a)
	if _, err := Decode(raw); !errors.Is(err, ErrCorruptSketch) {
		t.Errorf("spacesaving entries swapped: got %v, want ErrCorruptSketch", err)
	}
}

func TestDecodeRejectsInvalidGeometry(t *testing.T) {
	// SpaceSaving with err > count.
	var ss []byte
	ss = binary.LittleEndian.AppendUint16(ss, 0x4B53)
	ss = append(ss, 0x01, 0x02, 0x00)
	ss = binary.LittleEndian.AppendUint64(ss, 10)
	ss = binary.LittleEndian.AppendUint32(ss, 4) // k
	ss = binary.LittleEndian.AppendUint32(ss, 1) // n
	ss = binary.LittleEndian.AppendUint64(ss, 5) // value
	ss = binary.LittleEndian.AppendUint64(ss, 2) // count
	ss = binary.LittleEndian.AppendUint64(ss, 9) // err > count
	if _, err := Decode(ss); !errors.Is(err, ErrCorruptSketch) {
		t.Errorf("err>count accepted: %v", err)
	}

	// Window with positions out of order.
	var w []byte
	w = binary.LittleEndian.AppendUint16(w, 0x4B53)
	w = append(w, 0x01, 0x03, 0x00)
	w = binary.LittleEndian.AppendUint64(w, 2)
	w = binary.LittleEndian.AppendUint32(w, 8) // W
	w = binary.LittleEndian.AppendUint32(w, 2) // n
	w = binary.LittleEndian.AppendUint64(w, 9) // pos 9
	w = binary.LittleEndian.AppendUint64(w, 1)
	w = binary.LittleEndian.AppendUint64(w, 4) // pos 4 < 9
	w = binary.LittleEndian.AppendUint64(w, 2)
	if _, err := Decode(w); !errors.Is(err, ErrCorruptSketch) {
		t.Errorf("unordered window positions accepted: %v", err)
	}
}

func TestEncodeDecodeBlocks(t *testing.T) {
	c := NewChain(ChainSpec{NDVPrecision: 10, HeavyK: 4, WindowW: 8})
	for i := 0; i < 100; i++ {
		c.Push(int64(i % 9))
	}
	raws, err := EncodeBlocks(c.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBlocks(raws)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back.HLL() == nil || back.Heavy() == nil || back.Window() == nil {
		t.Fatalf("DecodeBlocks lost blocks: %d", len(back))
	}
	for i, b := range back {
		want, _ := c.Blocks()[i].MarshalBinary()
		got, _ := b.MarshalBinary()
		if !bytes.Equal(want, got) {
			t.Errorf("block %d not byte-identical after wire round trip", i)
		}
	}
	// Empty in, empty out — the no-sketch wire shape.
	if raws, err := EncodeBlocks(nil); err != nil || raws != nil {
		t.Fatal("EncodeBlocks(nil) should be (nil, nil)")
	}
	if bs, err := DecodeBlocks(nil); err != nil || bs != nil {
		t.Fatal("DecodeBlocks(nil) should be (nil, nil)")
	}
}
