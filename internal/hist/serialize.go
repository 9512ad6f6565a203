package hist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
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
	size := 2 + 1 + 1 + 1 + 24 + 4 + 16*len(h.Frequent) + 4 + 32*len(h.Buckets)
	out := make([]byte, size)
	off := 0
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(out[off:], v)
		off += 2
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(out[off:], v)
		off += 4
	}
	put64 := func(v int64) {
		binary.LittleEndian.PutUint64(out[off:], uint64(v))
		off += 8
	}
	put16(serialMagic)
	out[off] = serialVersion2
	off++
	out[off] = byte(h.Kind)
	off++
	var flags byte
	if h.Degraded {
		flags |= flagDegraded
	}
	out[off] = flags
	off++
	put64(h.Total)
	put64(h.DistinctTotal)
	put64(h.Skipped)
	put32(uint32(len(h.Frequent)))
	for _, f := range h.Frequent {
		put64(f.Value)
		put64(f.Count)
	}
	put32(uint32(len(h.Buckets)))
	for _, b := range h.Buckets {
		put64(b.Low)
		put64(b.High)
		put64(b.Count)
		put64(b.Distinct)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	off := 0
	need := func(n int) error {
		if len(data)-off < n {
			return fmt.Errorf("%w: truncated at offset %d", ErrCorruptHistogram, off)
		}
		return nil
	}
	get64 := func() int64 {
		v := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	if err := need(2 + 1); err != nil {
		return err
	}
	if binary.LittleEndian.Uint16(data) != serialMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptHistogram)
	}
	if data[2] != serialVersion2 {
		return fmt.Errorf("%w: unsupported version %#x (this build reads %#x only)", ErrCorruptHistogram, data[2], serialVersion2)
	}
	if err := need(2 + 1 + 1 + 1 + 24 + 4); err != nil {
		return err
	}
	kind := Kind(data[3])
	if kind > TopFrequency {
		return fmt.Errorf("%w: unknown kind %d", ErrCorruptHistogram, kind)
	}
	flags := data[4]
	if flags&^flagDegraded != 0 {
		return fmt.Errorf("%w: unknown flags %#x", ErrCorruptHistogram, flags)
	}
	off = 5
	total := get64()
	distinct := get64()
	skipped := get64()
	nf := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if err := need(16 * nf); err != nil {
		return err
	}
	freq := make([]FrequentValue, nf)
	for i := range freq {
		freq[i].Value = get64()
		freq[i].Count = get64()
	}
	if err := need(4); err != nil {
		return err
	}
	nb := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if err := need(32 * nb); err != nil {
		return err
	}
	buckets := make([]Bucket, nb)
	for i := range buckets {
		buckets[i].Low = get64()
		buckets[i].High = get64()
		buckets[i].Count = get64()
		buckets[i].Distinct = get64()
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptHistogram, len(data)-off)
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
