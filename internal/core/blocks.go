package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"streamhist/internal/hist"
)

// The statistic blocks of §5.2. Each block is a streaming state machine
// that consumes the bin sequence produced by the Scanner, relays it
// unchanged to the next block in the daisy chain, and emits its result on a
// separate result port. Blocks that need two passes over the bins signal
// the Scanner through the repeat channel.

// insertionList models the pipelined insertion-sort register file of the
// TopK block (Figure 12): K slots; an arriving item travels right until it
// finds an empty slot or a slot holding a lower-ranked item, which it
// displaces (the displaced item continues travelling, possibly falling off
// the end). Rank order is (count descending, value ascending) — the
// comparator includes the value so that ties resolve deterministically,
// which keeps the block bit-identical to the software reference; in
// hardware this is one extra comparison in the same register pipeline.
type insertionList struct {
	slots []hist.FrequentValue
	used  int
}

func newInsertionList(k int) *insertionList {
	return &insertionList{slots: make([]hist.FrequentValue, k)}
}

// ranksAbove reports whether a outranks b in (count desc, value asc) order.
func ranksAbove(a, b hist.FrequentValue) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Value < b.Value
}

// insert pushes one item through the register pipeline. The slots stay in
// rank order, so an item that does not outrank the last slot of a full list
// would travel every stage and fall off the end leaving the list as it was:
// it is dropped at the entry instead, and a bin that cannot enter costs one
// comparison rather than K.
func (l *insertionList) insert(value, count int64) {
	cur := hist.FrequentValue{Value: value, Count: count}
	if l.used == len(l.slots) && !ranksAbove(cur, l.slots[l.used-1]) {
		return
	}
	for i := 0; i < len(l.slots); i++ {
		if i >= l.used {
			l.slots[i] = cur
			l.used++
			return
		}
		if ranksAbove(cur, l.slots[i]) {
			l.slots[i], cur = cur, l.slots[i]
		}
	}
}

// offer inserts a batch of items in order. Over a wide region nearly every
// bin fails to outrank the last slot of the full list, so that test is made
// here, in the loop, and only the bins that pass enter the pipeline.
func (l *insertionList) offer(values, counts []int64) {
	for k, c := range counts {
		if l.used < len(l.slots) || ranksAbove(hist.FrequentValue{Value: values[k], Count: c}, l.slots[l.used-1]) {
			l.insert(values[k], c)
		}
	}
}

// contents returns the occupied slots in list order (descending count).
func (l *insertionList) contents() []hist.FrequentValue {
	out := make([]hist.FrequentValue, l.used)
	copy(out, l.slots[:l.used])
	return out
}

func (l *insertionList) reset() { l.used = 0 }

// ascendingSet is the set a two-pass block consults once per bin in its
// second pass: the values flagged by the first pass, sorted once, and a
// cursor that advances with the bins. Both keys the blocks use — bin values
// and bin ordinals — arrive in ascending order, so a whole pass costs one
// walk of the set, not one walk per bin.
type ascendingSet struct {
	keys []int64
	next int
}

// reset loads the first n entries of list, in value order.
func (s *ascendingSet) reset(list *insertionList, n int) {
	first := list.slots[:min(n, list.used)]
	s.keys = slices.Grow(s.keys[:0], len(first))
	for _, e := range first {
		s.keys = append(s.keys, e.Value)
	}
	slices.Sort(s.keys)
	s.next = 0
}

// has reports whether k is in the set. Successive calls must not descend.
func (s *ascendingSet) has(k int64) bool {
	next, ok := s.from(k)
	return ok && next == k
}

// from returns the least key at or above k, and false when there is none.
// Successive calls must not descend.
func (s *ascendingSet) from(k int64) (int64, bool) {
	for s.next < len(s.keys) && s.keys[s.next] < k {
		s.next++
	}
	if s.next == len(s.keys) {
		return 0, false
	}
	return s.keys[s.next], true
}

// Block is the daisy-chain element interface. The Scanner calls BeginScan /
// Consume / EndScan for each pass; NeedsScan reports whether the block wants
// pass s (0-based) — the "repeat" feedback channel of Figure 11.
type Block interface {
	// Name identifies the block in reports.
	Name() string
	// NeedsScan reports whether the block participates in pass s.
	NeedsScan(s int) bool
	// BeginScan resets per-pass state.
	BeginScan(s int)
	// Consume processes a batch of non-empty bins during pass s: the bin of
	// value values[k] holds counts[k]. Bins arrive in ascending value order,
	// batch after batch, and the block must not keep the slices. The Scanner
	// has already filtered empty bins (the valid flag of the hardware). The
	// hardware block takes one bin at a time; the host hands it a batch, so
	// that its loop runs without a call per bin.
	Consume(s int, values, counts []int64)
	// EndScan finalises pass s.
	EndScan(s int)
	// Scans returns the total number of passes the block needs.
	Scans() int
}

// TopKBlock maintains the K most frequent values (§5.2.1).
type TopKBlock struct {
	K    int
	list *insertionList
}

// NewTopKBlock returns a TopK block with list size k.
func NewTopKBlock(k int) *TopKBlock {
	if k <= 0 {
		panic("core: TopK needs a positive K")
	}
	return &TopKBlock{K: k, list: newInsertionList(k)}
}

// Name implements Block.
func (b *TopKBlock) Name() string { return fmt.Sprintf("TopK(T=%d)", b.K) }

// NeedsScan implements Block.
func (b *TopKBlock) NeedsScan(s int) bool { return s == 0 }

// Scans implements Block.
func (b *TopKBlock) Scans() int { return 1 }

// BeginScan implements Block.
func (b *TopKBlock) BeginScan(s int) {
	if s == 0 {
		b.list.reset()
	}
}

// Consume implements Block.
func (b *TopKBlock) Consume(s int, values, counts []int64) {
	if s == 0 {
		b.list.offer(values, counts)
	}
}

// EndScan implements Block.
func (b *TopKBlock) EndScan(int) {}

// Result returns the frequency list (descending count, ascending value on
// ties).
func (b *TopKBlock) Result() []hist.FrequentValue { return b.list.contents() }

// EquiDepthBlock builds an equi-depth histogram in one scan (§5.2.1).
type EquiDepthBlock struct {
	B     int
	total int64 // provided by the Binner when it signals completion

	limit   int64
	cur     hist.Bucket
	buckets []hist.Bucket
}

// NewEquiDepthBlock returns an equi-depth block creating b buckets over a
// column with the given total row count.
func NewEquiDepthBlock(b int, total int64) *EquiDepthBlock {
	if b <= 0 {
		panic("core: equi-depth needs a positive bucket count")
	}
	return &EquiDepthBlock{B: b, total: total}
}

// Name implements Block.
func (b *EquiDepthBlock) Name() string { return fmt.Sprintf("EquiDepth(B=%d)", b.B) }

// NeedsScan implements Block.
func (b *EquiDepthBlock) NeedsScan(s int) bool { return s == 0 }

// Scans implements Block.
func (b *EquiDepthBlock) Scans() int { return 1 }

// BeginScan implements Block.
func (b *EquiDepthBlock) BeginScan(s int) {
	if s != 0 {
		return
	}
	b.limit = b.total / int64(b.B)
	if b.limit < 1 {
		b.limit = 1
	}
	b.cur = hist.Bucket{}
	b.buckets = b.buckets[:0]
}

// Consume implements Block.
func (b *EquiDepthBlock) Consume(s int, values, counts []int64) {
	if s != 0 {
		return
	}
	cur := b.cur
	for k, c := range counts {
		if cur.Distinct == 0 {
			cur.Low = values[k]
		}
		cur.Count += c
		cur.Distinct++
		cur.High = values[k]
		if cur.Count >= b.limit {
			b.buckets = append(b.buckets, cur)
			cur = hist.Bucket{}
		}
	}
	b.cur = cur
}

// EndScan implements Block.
func (b *EquiDepthBlock) EndScan(s int) {
	if s == 0 && b.cur.Distinct > 0 {
		b.buckets = append(b.buckets, b.cur)
		b.cur = hist.Bucket{}
	}
}

// Result returns the buckets.
func (b *EquiDepthBlock) Result() []hist.Bucket { return b.buckets }

// MaxDiffBlock builds a Max-diff histogram in two scans (§5.2.2): the first
// scan routes the differences between consecutive bins through a modified
// TopK block; the second closes a bucket after every bin that created one of
// the B-1 largest differences.
type MaxDiffBlock struct {
	B int

	diffs *insertionList // entries: Value = boundary ordinal, Count = |diff|

	ordinal   int64 // index of the current bin within the non-empty sequence
	prevCount int64
	havePrev  bool

	boundary ascendingSet // ordinals after which a bucket closes

	cur     hist.Bucket
	buckets []hist.Bucket
}

// NewMaxDiffBlock returns a Max-diff block creating b buckets.
func NewMaxDiffBlock(b int) *MaxDiffBlock {
	if b <= 0 {
		panic("core: max-diff needs a positive bucket count")
	}
	return &MaxDiffBlock{B: b, diffs: newInsertionList(b - 1 + 1)} // list size B-1 boundaries (+1 slot keeps K>=1 valid for B=1)
}

// Name implements Block.
func (b *MaxDiffBlock) Name() string { return fmt.Sprintf("MaxDiff(B=%d)", b.B) }

// NeedsScan implements Block.
func (b *MaxDiffBlock) NeedsScan(s int) bool { return s == 0 || s == 1 }

// Scans implements Block.
func (b *MaxDiffBlock) Scans() int { return 2 }

// BeginScan implements Block.
func (b *MaxDiffBlock) BeginScan(s int) {
	switch s {
	case 0:
		b.diffs.reset()
		b.ordinal = 0
		b.havePrev = false
	case 1:
		// Freeze the boundary set from the first scan's diff list.
		b.boundary.reset(b.diffs, b.B-1)
		b.ordinal = 0
		b.cur = hist.Bucket{}
		b.buckets = b.buckets[:0]
	}
}

// Consume implements Block.
func (b *MaxDiffBlock) Consume(s int, values, counts []int64) {
	switch s {
	case 0:
		// The subtract logic at the block entry replaces the bin count
		// with the difference to the previous bin. The "value" tracked in
		// the list is the ordinal of the earlier bin of the pair, i.e.
		// the position after which a boundary would be placed.
		for _, count := range counts {
			if b.havePrev {
				d := count - b.prevCount
				if d < 0 {
					d = -d
				}
				b.diffs.insert(b.ordinal-1, d)
			}
			b.prevCount = count
			b.havePrev = true
			b.ordinal++
		}
	case 1:
		cur := b.cur
		for k, count := range counts {
			if cur.Distinct == 0 {
				cur.Low = values[k]
			}
			cur.Count += count
			cur.Distinct++
			cur.High = values[k]
			if b.boundary.has(b.ordinal) {
				b.buckets = append(b.buckets, cur)
				cur = hist.Bucket{}
			}
			b.ordinal++
		}
		b.cur = cur
	}
}

// EndScan implements Block.
func (b *MaxDiffBlock) EndScan(s int) {
	if s == 1 && b.cur.Distinct > 0 {
		b.buckets = append(b.buckets, b.cur)
		b.cur = hist.Bucket{}
	}
}

// Result returns the buckets.
func (b *MaxDiffBlock) Result() []hist.Bucket { return b.buckets }

// CompressedBlock builds a Compressed histogram in two scans (§5.2.2): the
// first scan fills a TopK list with the T most frequent values; the second
// filters those values out (flagging them invalid) and routes the rest into
// an internal equi-depth block.
type CompressedBlock struct {
	T, B  int
	total int64

	top    *insertionList
	topSet ascendingSet // pass 1's view of top
	ed     *EquiDepthBlock
}

// NewCompressedBlock returns a Compressed block keeping t exact frequent
// values and b equi-depth buckets over the rest; total is the column's row
// count as reported by the Binner.
func NewCompressedBlock(t, b int, total int64) *CompressedBlock {
	if t <= 0 {
		panic("core: compressed needs a positive T")
	}
	if b <= 0 {
		panic("core: compressed needs a positive bucket count")
	}
	return &CompressedBlock{T: t, B: b, total: total, top: newInsertionList(t)}
}

// Name implements Block.
func (b *CompressedBlock) Name() string { return fmt.Sprintf("Compressed(T=%d,B=%d)", b.T, b.B) }

// NeedsScan implements Block.
func (b *CompressedBlock) NeedsScan(s int) bool { return s == 0 || s == 1 }

// Scans implements Block.
func (b *CompressedBlock) Scans() int { return 2 }

// BeginScan implements Block.
func (b *CompressedBlock) BeginScan(s int) {
	switch s {
	case 0:
		b.top.reset()
	case 1:
		var topMass int64
		for _, f := range b.top.slots[:b.top.used] {
			topMass += f.Count
		}
		b.topSet.reset(b.top, b.T)
		b.ed = NewEquiDepthBlock(b.B, b.total-topMass)
		b.ed.BeginScan(0)
	}
}

// Consume implements Block.
func (b *CompressedBlock) Consume(s int, values, counts []int64) {
	switch s {
	case 0:
		b.top.offer(values, counts)
	case 1:
		// The runs between two heavy hitters go to the equi-depth block
		// whole; a heavy hitter itself is flagged invalid: exact, not
		// bucketed.
		for len(values) > 0 {
			run, top := len(values), false
			if next, ok := b.topSet.from(values[0]); ok {
				run, top = slices.BinarySearch(values, next)
			}
			b.ed.Consume(0, values[:run], counts[:run])
			if top {
				run++
			}
			values, counts = values[run:], counts[run:]
		}
	}
}

// EndScan implements Block.
func (b *CompressedBlock) EndScan(s int) {
	if s == 1 {
		b.ed.EndScan(0)
	}
}

// Frequent returns the exact heavy-hitter list.
func (b *CompressedBlock) Frequent() []hist.FrequentValue { return b.top.contents() }

// Buckets returns the equi-depth buckets over the residual values.
func (b *CompressedBlock) Buckets() []hist.Bucket {
	if b.ed == nil {
		return nil
	}
	return b.ed.Result()
}

// EncodeBuckets serialises buckets the way the hardware outputs them: each
// bucket as a pair of 32-bit integers (aggregate count, number of bins),
// 8 bytes per bucket (§6.3, "each bucket is output as a pair of 32-bit
// integers").
func EncodeBuckets(buckets []hist.Bucket) []byte {
	out := make([]byte, 8*len(buckets))
	for i, b := range buckets {
		binary.LittleEndian.PutUint32(out[i*8:], uint32(b.Count))
		binary.LittleEndian.PutUint32(out[i*8+4:], uint32(b.Distinct))
	}
	return out
}
