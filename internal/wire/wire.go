// Package wire is the one bounds-checked cursor every variable-length binary
// format of this module decodes through: the scan protocol's payloads, WAL
// records, catalog entries, histograms and sketch blocks. It also holds the
// u16-length-prefixed string those formats share.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decoder is a little-endian cursor over a byte slice with a sticky error.
// The first read past the end, or the first Fail, records an error wrapping
// the sentinel the decoder was made with; every later read returns a zero
// value and consumes nothing. A format is read field by field and its error
// checked once, with Err or Done.
type Decoder struct {
	// buf[off:] is unread. A read advances the integer off rather than
	// reslicing buf, so it stores no pointer and pays no GC write barrier;
	// a failure cuts buf at off, so later reads fail on length alone.
	buf      []byte
	off      int
	size     int // len(buf) as given, for the truncation message
	sentinel error
	err      error
}

// errShort marks a read past the end until Err words it: recording it makes
// no call, which keeps the fixed-width reads small enough to inline.
var errShort = errors.New("short read")

// NewDecoder returns a cursor over buf whose failures wrap sentinel.
func NewDecoder(buf []byte, sentinel error) *Decoder {
	return &Decoder{buf: buf, size: len(buf), sentinel: sentinel}
}

func (d *Decoder) short() {
	if d.err == nil {
		d.err = errShort
	}
	d.buf = d.buf[:d.off]
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if len(d.buf)-d.off < 1 {
		d.short()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if len(d.buf)-d.off < 2 {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if len(d.buf)-d.off < 4 {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if len(d.buf)-d.off < 8 {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bytes reads the next n bytes. The result aliases the decoded buffer, its
// capacity cut to n so that an append cannot overwrite what follows.
func (d *Decoder) Bytes(n int) []byte {
	if n < 0 || len(d.buf)-d.off < n {
		d.short()
		return nil
	}
	d.off += n
	return d.buf[d.off-n : d.off : d.off]
}

// Rest reads every byte left.
func (d *Decoder) Rest() []byte { return d.Bytes(len(d.buf) - d.off) }

// Str16 reads a string in AppendStr16's layout whose length must not exceed
// limit.
func (d *Decoder) Str16(limit int) string {
	n := int(d.U16())
	if n > limit {
		d.Fail("string length %d exceeds limit %d", n, limit)
	}
	return string(d.Bytes(n))
}

// Count checks n, an element count just read, before anything is allocated
// for it: n must not exceed limit, and n elements of at least minSize ≥ 1
// bytes each must fit in the bytes left, a bound checked by division so that
// no count can wrap it. Count returns n, or 0 once the decoder has failed.
func (d *Decoder) Count(n uint64, limit, minSize int) int {
	switch {
	case d.err != nil:
	case n > uint64(limit):
		d.Fail("count %d exceeds limit %d", n, limit)
	case n > uint64((len(d.buf)-d.off)/minSize):
		d.Fail("count %d of ≥ %d-byte elements overruns the %d bytes left", n, minSize, len(d.buf)-d.off)
	default:
		return int(n)
	}
	return 0
}

// Fail records a failure, worded after the sentinel, unless one is recorded.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.sentinel}, args...)...)
	}
	d.buf = d.buf[:d.off]
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error {
	if d.err == errShort {
		d.err = fmt.Errorf("%w: truncated at byte %d of %d", d.sentinel, d.off, d.size)
	}
	return d.err
}

// Done is Err for a format that fills its whole buffer: bytes left unread
// are a failure too.
func (d *Decoder) Done() error {
	if d.off != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.Err()
}

// AppendStr16 appends s with a u16 length prefix.
func AppendStr16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}
