package sketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// The block implementations this package shipped before the flat-array
// rewrite — the position min-heap window, the map-sparse HLL and the
// map-indexed SpaceSaving with its O(k) minimum scan — kept verbatim as
// executable specifications. differential_test.go drives them and the live
// blocks with the same streams and requires identical encodings.

// --- window: min-heap on position ---

// refWindow keeps the W entries with the largest positions in a min-heap.
type refWindow struct {
	blockBase
	w int
	h refPosHeap
}

// refPosHeap is a min-heap on stream position.
type refPosHeap []winEntry

// refSiftUp restores the min-heap property after appending at index i.
func refSiftUp(h refPosHeap, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].pos <= h[i].pos {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func newRefWindow(w int) *refWindow {
	if w < 0 {
		w = 0
	}
	return &refWindow{w: w}
}

func (w *refWindow) Kind() Kind { return KindWindow }

func (w *refWindow) Name() string { return "window" }

// Push implements StatBlock.
func (w *refWindow) Push(pos, v int64) {
	w.items++
	if w.w == 0 {
		return
	}
	w.push1(pos, v)
}

// PushBatch implements StatBlock: value i carries position pos+i.
func (w *refWindow) PushBatch(pos int64, vals []int64) {
	w.items += int64(len(vals))
	if w.w == 0 || len(vals) == 0 {
		return
	}
	for _, v := range vals {
		w.push1(pos, v)
		pos++
	}
}

func (w *refWindow) push1(pos, v int64) {
	if len(w.h) < w.w {
		w.h = append(w.h, winEntry{pos: pos, val: v})
		refSiftUp(w.h, len(w.h)-1)
		return
	}
	if pos > w.h[0].pos {
		w.h[0] = winEntry{pos: pos, val: v}
		refSiftDown(w.h, 0)
	}
}

// entries returns the retained pairs sorted by position. The heap itself
// stays untouched.
func (w *refWindow) entries() []winEntry {
	out := make([]winEntry, len(w.h))
	copy(out, w.h)
	refSortEntries(out)
	return out
}

func refSortEntries(es []winEntry) {
	// Positions are unique, so ordering by pos alone is total.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].pos < es[j-1].pos; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Merge implements StatBlock: the union's W largest positions win, exactly
// reproducing the serial window over the combined stream.
func (w *refWindow) Merge(other StatBlock) error {
	o, ok := other.(*refWindow)
	if !ok {
		return fmt.Errorf("sketch: merging %s into window", other.Kind())
	}
	if o.w != w.w {
		return fmt.Errorf("sketch: merging window W=%d into W=%d", o.w, w.w)
	}
	if w.w > 0 {
		for _, e := range o.h {
			w.push1(e.pos, e.val)
		}
	}
	w.absorb(&o.blockBase)
	return nil
}

// refSiftDown restores the min-heap property at index i.
func refSiftDown(h refPosHeap, i int) {
	n := len(h)
	for {
		l, r, smallest := 2*i+1, 2*i+2, i
		if l < n && h[l].pos < h[smallest].pos {
			smallest = l
		}
		if r < n && h[r].pos < h[smallest].pos {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

func (w *refWindow) MarshalBinary() ([]byte, error) {
	es := w.entries()
	out := appendHeader(make([]byte, 0, headerSize+8+16*len(es)), KindWindow, w.degraded, w.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(w.w))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(es)))
	for _, e := range es {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.pos))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.val))
	}
	return out, nil
}

// --- hll: sparse map promoted to a dense register file ---

// refHLL stores (index, rank) pairs in a map until it outgrows m/8.
type refHLL struct {
	blockBase
	p uint8  // precision: 2^p registers
	m uint32 // register count

	sparse map[uint32]uint8 // idx → max rank; nil once dense
	dense  []uint8
}

func newRefHLL(precision int) *refHLL {
	precision = clampPrecision(precision)
	return &refHLL{
		p:      uint8(precision),
		m:      1 << precision,
		sparse: make(map[uint32]uint8, 1<<precision/8+1),
	}
}

func (h *refHLL) Kind() Kind { return KindHLL }

func (h *refHLL) Name() string { return "hll" }

// Push implements StatBlock. The stream position is irrelevant to a
// distinct count; the signature is the chain's uniform contract.
func (h *refHLL) Push(_, v int64) {
	h.items++
	h.observe(v)
}

// PushBatch implements StatBlock. The position argument is irrelevant to a
// distinct count.
func (h *refHLL) PushBatch(_ int64, vals []int64) {
	h.items += int64(len(vals))
	for _, v := range vals {
		h.observe(v)
	}
}

func (h *refHLL) observe(v int64) {
	x := hashValue(v)
	idx := uint32(x >> (64 - h.p))
	rest := x << h.p
	var rank uint8
	if rest == 0 {
		rank = uint8(64 - h.p + 1)
	} else {
		rank = uint8(bits.LeadingZeros64(rest)) + 1
	}
	h.set(idx, rank)
}

func (h *refHLL) set(idx uint32, rank uint8) {
	if h.dense != nil {
		if rank > h.dense[idx] {
			h.dense[idx] = rank
		}
		return
	}
	if rank > h.sparse[idx] {
		h.sparse[idx] = rank
	}
	if uint32(len(h.sparse)) > h.m/8 {
		h.promote()
	}
}

// promote moves the sparse pairs into the dense register file.
func (h *refHLL) promote() {
	h.dense = make([]uint8, h.m)
	for idx, rank := range h.sparse {
		h.dense[idx] = rank
	}
	h.sparse = nil
}

// Merge implements StatBlock: registers take the pointwise maximum, which
// is exactly what a serial run over the union of the streams would hold.
func (h *refHLL) Merge(other StatBlock) error {
	o, ok := other.(*refHLL)
	if !ok {
		return fmt.Errorf("sketch: merging %s into hll", other.Kind())
	}
	if o.p != h.p {
		return fmt.Errorf("sketch: merging hll precision %d into %d", o.p, h.p)
	}
	if o.dense != nil {
		if h.dense == nil {
			h.promote()
		}
		for idx, rank := range o.dense {
			if rank > h.dense[idx] {
				h.dense[idx] = rank
			}
		}
	} else {
		for idx, rank := range o.sparse {
			h.set(idx, rank)
		}
	}
	h.absorb(&o.blockBase)
	return nil
}

func (h *refHLL) MarshalBinary() ([]byte, error) {
	out := appendHeader(make([]byte, 0, headerSize+2+4+int(h.m)), KindHLL, h.degraded, h.items)
	out = append(out, h.p)
	if h.dense != nil {
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint32(out, h.m)
		out = append(out, h.dense...)
		return out, nil
	}
	out = append(out, 0)
	idxs := make([]uint32, 0, len(h.sparse))
	for idx := range h.sparse {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idxs)))
	for _, idx := range idxs {
		out = binary.LittleEndian.AppendUint32(out, idx)
		out = append(out, h.sparse[idx])
	}
	return out, nil
}

// --- spacesaving: value→slot map, linear minimum scan ---

// refSpaceSaving indexes its arena with a Go map and scans for the minimum.
type refSpaceSaving struct {
	blockBase
	k       int
	entries []ssEntry
	index   map[int64]int32 // value → index into entries
}

func newRefSpaceSaving(k int) *refSpaceSaving {
	if k < 1 {
		k = 1
	}
	return &refSpaceSaving{
		k:       k,
		entries: make([]ssEntry, 0, k),
		index:   make(map[int64]int32, k),
	}
}

func (s *refSpaceSaving) Kind() Kind { return KindSpaceSaving }

func (s *refSpaceSaving) Name() string { return "spacesaving" }

// Push implements StatBlock. A full summary evicts the minimum counter —
// ties broken toward the largest value, so eviction is deterministic — and
// the newcomer inherits the evicted count as its error bound.
func (s *refSpaceSaving) Push(_, v int64) {
	s.items++
	if i, ok := s.index[v]; ok {
		s.entries[i].count++
		return
	}
	s.admit(v)
}

// PushBatch implements StatBlock.
func (s *refSpaceSaving) PushBatch(_ int64, vals []int64) {
	s.items += int64(len(vals))
	for _, v := range vals {
		if i, ok := s.index[v]; ok {
			s.entries[i].count++
			continue
		}
		s.admit(v)
	}
}

// admit tracks a previously-unseen value, evicting the minimum counter when
// the summary is full.
func (s *refSpaceSaving) admit(v int64) {
	if len(s.entries) < s.k {
		s.index[v] = int32(len(s.entries))
		s.entries = append(s.entries, ssEntry{val: v, count: 1})
		return
	}
	min := 0
	for i := 1; i < len(s.entries); i++ {
		e, m := &s.entries[i], &s.entries[min]
		if e.count < m.count || (e.count == m.count && e.val > m.val) {
			min = i
		}
	}
	minCount := s.entries[min].count
	delete(s.index, s.entries[min].val)
	s.entries[min] = ssEntry{val: v, count: minCount + 1, err: minCount}
	s.index[v] = int32(min)
}

// insertRaw installs a counter verbatim (merge spill, decode). Unlike admit
// it may grow the arena past k; Merge truncates afterwards.
func (s *refSpaceSaving) insertRaw(v, count, errBound int64) {
	s.index[v] = int32(len(s.entries))
	s.entries = append(s.entries, ssEntry{val: v, count: count, err: errBound})
}

// Top returns up to n entries ordered by count descending, ties by value
// ascending — the same deterministic order the binary encoding uses.
func (s *refSpaceSaving) Top(n int) []HeavyHitter {
	out := make([]HeavyHitter, 0, len(s.entries))
	for i := range s.entries {
		e := &s.entries[i]
		out = append(out, HeavyHitter{Value: e.val, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// minCount returns the summary's minimum tracked count when at capacity, or
// 0 otherwise — the upper bound on any untracked value's true frequency.
func (s *refSpaceSaving) minCount() int64 {
	if len(s.entries) < s.k {
		return 0
	}
	min := int64(-1)
	for i := range s.entries {
		if min < 0 || s.entries[i].count < min {
			min = s.entries[i].count
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// Merge implements StatBlock; see SpaceSaving.Merge for the rule.
func (s *refSpaceSaving) Merge(other StatBlock) error {
	o, ok := other.(*refSpaceSaving)
	if !ok {
		return fmt.Errorf("sketch: merging %s into spacesaving", other.Kind())
	}
	if o.k != s.k {
		return fmt.Errorf("sketch: merging spacesaving k=%d into k=%d", o.k, s.k)
	}
	minS, minO := s.minCount(), o.minCount()
	for i := range s.entries {
		e := &s.entries[i]
		if _, shared := o.index[e.val]; !shared {
			e.count += minO
			e.err += minO
		}
	}
	for j := range o.entries {
		oe := &o.entries[j]
		if i, exists := s.index[oe.val]; exists {
			s.entries[i].count += oe.count
			s.entries[i].err += oe.err
		} else {
			s.insertRaw(oe.val, oe.count+minS, oe.err+minS)
		}
	}
	if len(s.entries) > s.k {
		all := s.Top(0)
		s.entries = s.entries[:0]
		clear(s.index)
		for _, hh := range all[:s.k] {
			s.insertRaw(hh.Value, hh.Count, hh.Err)
		}
	}
	s.absorb(&o.blockBase)
	return nil
}

func (s *refSpaceSaving) MarshalBinary() ([]byte, error) {
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
