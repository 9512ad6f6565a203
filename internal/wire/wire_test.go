package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

var errTest = errors.New("test: corrupt")

func TestDecoderReadsLittleEndianFields(t *testing.T) {
	buf := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	d := NewDecoder(buf, errTest)
	if v := d.U8(); v != 0x01 {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U16(); v != 0x0302 {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0x07060504 {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0f0e0d0c0b0a0908 {
		t.Errorf("U64 = %#x", v)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done after reading every byte: %v", err)
	}
}

// After the first failure every read yields zero and consumes nothing, and
// the error reported is the first one, wrapping the decoder's sentinel.
func TestDecoderErrorIsSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3}, errTest)
	if v := d.U32(); v != 0 {
		t.Errorf("short U32 = %d, want 0", v)
	}
	if v := d.U8(); v != 0 {
		t.Errorf("U8 after a failure = %d, want 0", v)
	}
	if b := d.Bytes(1); b != nil {
		t.Errorf("Bytes after a failure = %v, want nil", b)
	}
	d.Fail("a later failure")
	err := d.Err()
	if !errors.Is(err, errTest) || !strings.Contains(err.Error(), "truncated at byte 0 of 3") {
		t.Fatalf("Err = %v, want the sentinel and the first failure's position", err)
	}
	if d.Done() != err {
		t.Fatalf("Done = %v, want the recorded %v", d.Done(), err)
	}
}

func TestDecoderDoneRejectsTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2}, errTest)
	d.U8()
	if err := d.Err(); err != nil {
		t.Fatalf("Err with a byte left: %v", err)
	}
	if err := d.Done(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done = %v, want a trailing-bytes failure", err)
	}
}

// Bytes aliases the buffer but caps the result, so appending to it cannot
// overwrite the bytes after it.
func TestDecoderBytesCapped(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	d := NewDecoder(buf, errTest)
	b := d.Bytes(2)
	if len(b) != 2 || cap(b) != 2 || &b[0] != &buf[0] {
		t.Fatalf("Bytes(2): len %d cap %d, aliasing %v", len(b), cap(b), &b[0] == &buf[0])
	}
	_ = append(b, 9)
	if rest := d.Rest(); len(rest) != 2 || rest[0] != 3 {
		t.Fatalf("Rest = %v after appending to an earlier read", rest)
	}
	if d.Bytes(-1) != nil || d.Err() == nil {
		t.Fatal("Bytes(-1) did not fail")
	}
}

func TestDecoderStr16(t *testing.T) {
	enc := AppendStr16(AppendStr16(nil, "lineitem"), "")
	d := NewDecoder(enc, errTest)
	if a, b := d.Str16(8), d.Str16(0); a != "lineitem" || b != "" || d.Done() != nil {
		t.Fatalf("Str16 = %q, %q, err %v", a, b, d.Done())
	}
	d = NewDecoder(enc, errTest)
	if s := d.Str16(7); s != "" || !errors.Is(d.Err(), errTest) {
		t.Fatalf("over-limit Str16 = %q, err %v", s, d.Err())
	}
}

// A count is refused when it passes its limit or when that many elements of
// the smallest size cannot fit in the bytes left, including counts whose
// byte size would wrap an int.
func TestDecoderCount(t *testing.T) {
	for _, tc := range []struct {
		name      string
		left      int
		n         uint64
		limit     int
		minSize   int
		wantCount int
	}{
		{"fits", 32, 4, 10, 8, 4},
		{"fits exactly", 32, 32, math.MaxInt, 1, 32},
		{"over limit", 64, 5, 4, 8, 0},
		{"overruns the bytes left", 31, 4, 10, 8, 0},
		{"u32 max", 64, math.MaxUint32, math.MaxInt, 16, 0},
		{"u64 max", 64, math.MaxUint64, math.MaxInt, 1, 0},
		{"wraps when multiplied", 64, 1 << 60, math.MaxInt, 32, 0},
	} {
		d := NewDecoder(make([]byte, tc.left), errTest)
		got := d.Count(tc.n, tc.limit, tc.minSize)
		if got != tc.wantCount || (got == 0) != errors.Is(d.Err(), errTest) {
			t.Errorf("%s: Count = %d, err %v; want %d", tc.name, got, d.Err(), tc.wantCount)
		}
	}
}
