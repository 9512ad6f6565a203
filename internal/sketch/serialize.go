package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"streamhist/internal/wire"
)

// Binary serialisation for catalog persistence and the STATS wire, in the
// style of hist/serialize.go. Version 1 is a compact little-endian layout:
//
//	magic   uint16 = 0x4B53 ("SK")
//	version uint8  = 0x01
//	kind    uint8  (Kind)
//	flags   uint8  (bit 0: Degraded)
//	items   uint64
//	payload, per kind:
//	  hll:          precision u8, mode u8 (0 sparse / 1 dense);
//	                sparse: n u32, then n × (idx u32, rank u8), idx ascending
//	                dense:  m u32, then m register bytes
//	  spacesaving:  k u32, n u32, then n × (value, count, err) int64
//	                triples, count descending then value ascending
//	  window:       w u32, n u32, then n × (pos, value) int64 pairs,
//	                pos ascending
//
// Every repeated section is emitted in a canonical order, so two blocks with
// equal state always encode to identical bytes — the property the
// parallel ≡ serial tests compare on. Future layout changes bump the version
// byte; decoders keep reading every older version (the same forward-decode
// discipline as the histogram encoding, pinned by golden files).

const (
	sketchMagic    uint16 = 0x4B53
	sketchVersion1 byte   = 0x01

	sketchFlagDegraded byte = 1 << 0
)

// headerSize is the fixed prefix before the kind payload.
const headerSize = 2 + 1 + 1 + 1 + 8

// ErrCorruptSketch reports an undecodable sketch byte stream.
var ErrCorruptSketch = errors.New("sketch: corrupt serialized sketch")

func appendHeader(out []byte, kind Kind, degraded bool, items int64) []byte {
	out = binary.LittleEndian.AppendUint16(out, sketchMagic)
	out = append(out, sketchVersion1, byte(kind))
	var flags byte
	if degraded {
		flags |= sketchFlagDegraded
	}
	out = append(out, flags)
	return binary.LittleEndian.AppendUint64(out, uint64(items))
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *HLL) MarshalBinary() ([]byte, error) {
	out := appendHeader(make([]byte, 0, headerSize+2+4+int(h.m)), KindHLL, h.degraded, h.items)
	out = append(out, h.p)
	if h.dense {
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint32(out, h.m)
		out = append(out, h.regs...)
		return out, nil
	}
	out = append(out, 0)
	out = binary.LittleEndian.AppendUint32(out, h.touched)
	for idx, rank := range h.regs {
		if rank != 0 {
			out = binary.LittleEndian.AppendUint32(out, uint32(idx))
			out = append(out, rank)
		}
	}
	return out, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SpaceSaving) MarshalBinary() ([]byte, error) {
	top := s.Top(0)
	out := appendHeader(make([]byte, 0, headerSize+8+24*len(top)), KindSpaceSaving, s.degraded, s.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.k))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(top)))
	for _, hh := range top {
		out = binary.LittleEndian.AppendUint64(out, uint64(hh.Value))
		out = binary.LittleEndian.AppendUint64(out, uint64(hh.Count))
		out = binary.LittleEndian.AppendUint64(out, uint64(hh.Err))
	}
	return out, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (w *Window) MarshalBinary() ([]byte, error) {
	es := w.live()
	out := appendHeader(make([]byte, 0, headerSize+8+16*len(es)), KindWindow, w.degraded, w.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(w.w))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(es)))
	for _, e := range es {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.pos))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.val))
	}
	return out, nil
}

// Decode parses one serialized sketch. It accepts every published version
// (currently only v1); unknown kinds and versions are errors, not guesses.
func Decode(buf []byte) (StatBlock, error) {
	d := wire.NewDecoder(buf, ErrCorruptSketch)
	magic := d.U16()
	version := d.U8()
	kind := Kind(d.U8())
	flags := d.U8()
	items := int64(d.U64())
	switch {
	case d.Err() != nil:
		return nil, d.Err()
	case magic != sketchMagic:
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorruptSketch, magic)
	case version != sketchVersion1:
		return nil, fmt.Errorf("%w: unknown version %#x", ErrCorruptSketch, version)
	case flags&^sketchFlagDegraded != 0:
		return nil, fmt.Errorf("%w: bad flags %#x", ErrCorruptSketch, flags)
	case items < 0:
		return nil, fmt.Errorf("%w: negative item count", ErrCorruptSketch)
	}

	base := blockBase{items: items, degraded: flags&sketchFlagDegraded != 0}
	var b StatBlock
	switch kind {
	case KindHLL:
		b = decodeHLL(d, base)
	case KindSpaceSaving:
		b = decodeSpaceSaving(d, base)
	case KindWindow:
		b = decodeWindow(d, base)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptSketch, uint8(kind))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

func decodeHLL(d *wire.Decoder, base blockBase) *HLL {
	p := d.U8()
	mode := d.U8()
	if p < hllMinPrecision || p > hllMaxPrecision {
		d.Fail("hll precision %d out of range", p)
		return nil
	}
	h := NewHLL(int(p))
	h.blockBase = base
	maxRank := uint8(64 - p + 1)
	switch mode {
	case 0:
		n := d.Count(uint64(d.U32()), int(h.m), 5)
		lastIdx := int64(-1)
		for i := 0; i < n; i++ {
			idx, rank := d.U32(), d.U8()
			if idx >= h.m || rank == 0 || rank > maxRank {
				d.Fail("hll sparse entry out of range")
			} else if int64(idx) <= lastIdx {
				d.Fail("hll sparse indices not strictly ascending")
			} else {
				lastIdx = int64(idx)
				h.regs[idx] = rank
			}
		}
		h.touched = uint32(n)
	case 1:
		if d.U32() != h.m {
			d.Fail("hll dense register count mismatch")
			return nil
		}
		regs := d.Bytes(int(h.m))
		copy(h.regs, regs)
		h.dense = true
		for _, r := range regs {
			if r > maxRank {
				d.Fail("hll dense register out of range")
				break
			}
			if r != 0 {
				h.touched++
			}
		}
	default:
		d.Fail("hll unknown representation")
	}
	return h
}

func decodeSpaceSaving(d *wire.Decoder, base blockBase) *SpaceSaving {
	k := d.U32()
	if k == 0 || k > 1<<20 {
		d.Fail("spacesaving geometry out of range")
	}
	n := d.Count(uint64(d.U32()), int(k), 24)
	if d.Err() != nil {
		return nil
	}
	s := NewSpaceSaving(int(k))
	s.blockBase = base
	var prev ssEntry
	for i := 0; i < n && d.Err() == nil; i++ {
		v, count, errBound := int64(d.U64()), int64(d.U64()), int64(d.U64())
		if count < 0 || errBound < 0 || errBound > count {
			d.Fail("spacesaving counter out of range")
		} else if i > 0 && (count > prev.count || count == prev.count && v <= prev.val) {
			// Out of the encoding's order the entry would re-encode to
			// other bytes.
			d.Fail("spacesaving entries not count-descending, value-ascending")
		} else if s.find(v) >= 0 {
			d.Fail("spacesaving duplicate value")
		} else {
			s.track(v, count, errBound)
			prev = ssEntry{val: v, count: count}
		}
	}
	return s
}

func decodeWindow(d *wire.Decoder, base blockBase) *Window {
	wcap := d.U32()
	if wcap > 1<<24 {
		d.Fail("window geometry out of range")
	}
	// The count is checked against the bytes left before the entries'
	// slice is allocated at its exact size.
	n := d.Count(uint64(d.U32()), int(wcap), 16)
	if d.Err() != nil {
		return nil
	}
	w := NewWindow(int(wcap))
	w.blockBase = base
	if n == 0 {
		return w
	}
	w.buf = make([]winEntry, n)
	lastPos := int64(-1)
	for i := range w.buf {
		e := winEntry{pos: int64(d.U64()), val: int64(d.U64())}
		if e.pos <= lastPos {
			d.Fail("window positions not strictly ascending")
			break
		}
		lastPos = e.pos
		w.buf[i] = e
	}
	return w
}

// DecodeBlocks parses a list of serialized sketches.
func DecodeBlocks(raws [][]byte) (Blocks, error) {
	if len(raws) == 0 {
		return nil, nil
	}
	out := make(Blocks, 0, len(raws))
	for i, raw := range raws {
		b, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("sketch %d: %w", i, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// EncodeBlocks serialises a list of sketches.
func EncodeBlocks(bs Blocks) ([][]byte, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	out := make([][]byte, 0, len(bs))
	for _, b := range bs {
		raw, err := b.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}
