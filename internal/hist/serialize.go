package hist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"streamhist/internal/wire"
)

// Binary serialisation for catalog persistence: one compact little-endian
// layout, version 2.
//
//	magic   uint16  = 0x4853 ("HS")
//	version uint8   = 0xF2
//	kind    uint8
//	flags   uint8   (bit 0: Degraded)
//	total, distinctTotal, skipped  int64
//	nFrequent uint32, then (value, count) int64 pairs
//	nBuckets  uint32, then (low, high, count, distinct) int64 quadruples
//
// An image from before the version byte existed (the kind, ≤ 6, sat where the
// version, ≥ 0x80, sits now) is refused, naming the byte found, not migrated.

const (
	serialMagic    uint16 = 0x4853
	serialVersion2 byte   = 0xF2

	flagDegraded byte = 1 << 0
)

// ErrCorruptHistogram reports an undecodable byte stream.
var ErrCorruptHistogram = errors.New("hist: corrupt serialized histogram")

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 2+1+1+1+24+4+16*len(h.Frequent)+4+32*len(h.Buckets))
	out = binary.LittleEndian.AppendUint16(out, serialMagic)
	var flags byte
	if h.Degraded {
		flags |= flagDegraded
	}
	out = append(out, serialVersion2, byte(h.Kind), flags)
	for _, v := range []int64{h.Total, h.DistinctTotal, h.Skipped} {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h.Frequent)))
	for _, f := range h.Frequent {
		out = binary.LittleEndian.AppendUint64(out, uint64(f.Value))
		out = binary.LittleEndian.AppendUint64(out, uint64(f.Count))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h.Buckets)))
	for _, b := range h.Buckets {
		for _, v := range []int64{b.Low, b.High, b.Count, b.Distinct} {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	d := wire.NewDecoder(data, ErrCorruptHistogram)
	magic := d.U16()
	version := d.U8()
	switch {
	case d.Err() != nil:
		return d.Err()
	case magic != serialMagic:
		return fmt.Errorf("%w: bad magic", ErrCorruptHistogram)
	case version != serialVersion2:
		return fmt.Errorf("%w: unsupported version %#x (this build reads %#x only)", ErrCorruptHistogram, version, serialVersion2)
	}
	kind := Kind(d.U8())
	flags := d.U8()
	if kind > TopFrequency {
		d.Fail("unknown kind %d", kind)
	}
	if flags&^flagDegraded != 0 {
		d.Fail("unknown flags %#x", flags)
	}
	total, distinct, skipped := int64(d.U64()), int64(d.U64()), int64(d.U64())
	freq := make([]FrequentValue, d.Count(uint64(d.U32()), math.MaxInt, 16))
	for i := range freq {
		freq[i] = FrequentValue{Value: int64(d.U64()), Count: int64(d.U64())}
	}
	buckets := make([]Bucket, d.Count(uint64(d.U32()), math.MaxInt, 32))
	for i := range buckets {
		buckets[i] = Bucket{Low: int64(d.U64()), High: int64(d.U64()), Count: int64(d.U64()), Distinct: int64(d.U64())}
	}
	if err := d.Done(); err != nil {
		return err
	}
	if len(freq) == 0 {
		freq = nil
	}
	if len(buckets) == 0 {
		buckets = nil
	}
	*h = Histogram{
		Kind: kind, Total: total, DistinctTotal: distinct,
		Degraded: flags&flagDegraded != 0, Skipped: skipped,
		Frequent: freq, Buckets: buckets,
	}
	return nil
}

// Quantile returns the approximate value at quantile q ∈ [0, 1]: the
// smallest value v such that roughly q·Total rows are ≤ v, interpolating
// uniformly within the containing bucket. Equi-depth histograms answer
// this especially well (their buckets ARE quantile slices).
func (h *Histogram) Quantile(q float64) (int64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("hist: quantile %v outside [0,1]", q)
	}
	if h.Total == 0 {
		return 0, errors.New("hist: quantile of empty histogram")
	}
	// Fold the frequent values back into the ordered walk: build a merged
	// ordered sequence of (range, count) segments.
	type seg struct {
		low, high int64
		count     int64
	}
	segs := make([]seg, 0, len(h.Buckets)+len(h.Frequent))
	for _, b := range h.Buckets {
		segs = append(segs, seg{b.Low, b.High, b.Count})
	}
	for _, f := range h.Frequent {
		segs = append(segs, seg{f.Value, f.Value, f.Count})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].low < segs[j].low })

	target := q * float64(h.Total)
	run := 0.0
	for _, s := range segs {
		if run+float64(s.count) >= target {
			if s.high == s.low || s.count == 0 {
				return s.low, nil
			}
			frac := (target - run) / float64(s.count)
			return s.low + int64(math.Round(frac*float64(s.high-s.low))), nil
		}
		run += float64(s.count)
	}
	if len(segs) == 0 {
		return 0, errors.New("hist: quantile of bucketless histogram")
	}
	return segs[len(segs)-1].high, nil
}
