package sketch

import (
	"fmt"
	"math/bits"
	"sort"
)

// SpaceSaving is the k-counter heavy-hitter summary (Metwally et al.): every
// tracked value v carries an over-estimate Count with a per-entry error
// bound, maintaining
//
//	f(v) ≤ Count(v) ≤ f(v) + Err(v)
//
// for the true frequency f, and any value with f(v) > N/k is guaranteed to
// be tracked. Merging sums counters pairwise — a value absent from one side
// is charged that side's minimum count into both Count and Err, since an
// untracked value may have occurred up to min times there — then truncates
// back to the k largest. Each side's minimum is at most N_i/k, so the merged
// ε = N/k error bound survives (the mergeable-summaries result).
//
// A summary that *streamed* its values is order-sensitive once an eviction
// has fired: merged lanes then equal the serial run bytewise only when
// capacity covers the distinct count, and otherwise keep the guarantees above,
// which is all the property tests ask of them. A summary filled from a
// lossless bin region (Chain.Fold, offerExact) is not streamed: it is the
// exact top-k of the merged counts, Err 0, the same bytes under any sharding
// and for any k. DESIGN.md spells the distinction out.
//
// The k counters live in a flat entries arena. A small open-addressed table
// (linear probing, backward-shift delete) maps a value to its arena slot, and
// an indexed binary min-heap of slot ids, ordered by (count ascending, value
// descending), names the eviction victim — so a hit and a miss are both
// O(log k) array work, and the steady state recycles slots in place and
// never allocates, which is what lets the summary ride the hot side path.
// The heap order is total, so the victim does not depend on arena order.
type SpaceSaving struct {
	blockBase
	k       int
	entries []ssEntry
	// tab is the value→slot table: at least 8k cells, a power of two, each
	// holding an arena slot + 1, or 0 when empty. The value itself is read
	// from the arena; at a load of 1/8 a probe rarely meets a foreign cell.
	tab      []int32
	tabShift uint8 // 64 − log2(len(tab)): the hash keeps its top bits
	// heap holds every slot id once the first eviction has built it; Merge,
	// decode and reset empty it and the next eviction builds it again.
	// hpos[slot] is the slot's index in heap.
	heap []int32
	hpos []int32
}

// ssEntry is one tracked value's state, stored in the arena.
type ssEntry struct {
	val   int64
	count int64 // over-estimate of the value's frequency
	err   int64 // count − err is a guaranteed lower bound
}

// HeavyHitter is one reported entry.
type HeavyHitter struct {
	Value int64
	// Count over-estimates the value's frequency; Count − Err is a
	// guaranteed lower bound.
	Count int64
	Err   int64
}

// Accuracy renders the error bound the way the CLIs print it.
func (hh HeavyHitter) Accuracy() string {
	if hh.Err == 0 {
		return "exact"
	}
	return fmt.Sprintf("overcount ≤ %d", hh.Err)
}

// NewSpaceSaving returns a summary with k counters (minimum 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	logCells := bits.Len(uint(8*k - 1))
	return &SpaceSaving{
		k:        k,
		entries:  make([]ssEntry, 0, k),
		tab:      make([]int32, 1<<logCells),
		tabShift: uint8(64 - logCells),
	}
}

// Kind implements StatBlock.
func (s *SpaceSaving) Kind() Kind { return KindSpaceSaving }

// Name implements StatBlock.
func (s *SpaceSaving) Name() string { return "spacesaving" }

// Capacity returns k.
func (s *SpaceSaving) Capacity() int { return s.k }

// home is the table cell a value's probe sequence starts at.
func (s *SpaceSaving) home(v int64) int {
	return int(uint64(v) * 0x9E3779B97F4A7C15 >> s.tabShift)
}

// find returns the arena slot tracking v, or -1.
func (s *SpaceSaving) find(v int64) int32 {
	mask := len(s.tab) - 1
	for i := s.home(v); ; i = (i + 1) & mask {
		slot := s.tab[i] - 1
		if slot < 0 || s.entries[slot].val == v {
			return slot
		}
	}
}

// tabInsert maps v, which must be absent, to an arena slot.
func (s *SpaceSaving) tabInsert(v int64, slot int32) {
	mask := len(s.tab) - 1
	i := s.home(v)
	for s.tab[i] != 0 {
		i = (i + 1) & mask
	}
	s.tab[i] = slot + 1
}

// tabDelete unmaps the value held in an arena slot and closes the gap by
// shifting back every later cell of the run that may legally sit nearer its
// home.
func (s *SpaceSaving) tabDelete(slot int32) {
	mask := len(s.tab) - 1
	i := s.home(s.entries[slot].val)
	for s.tab[i] != slot+1 { // no empty cell lies between a value and its home
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.tab[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.entries[s.tab[j]-1].val))&mask >= (j-i)&mask {
			s.tab[i] = s.tab[j]
			i = j
		}
	}
	s.tab[i] = 0
}

// reindex rebuilds the table from the arena and drops the heap.
func (s *SpaceSaving) reindex() {
	clear(s.tab)
	for i := range s.entries {
		s.tabInsert(s.entries[i].val, int32(i))
	}
	s.heap = s.heap[:0]
}

// evictsBefore is the heap order over (count, value) keys: a is evicted
// before b when its count is lower, ties broken toward the larger value.
func evictsBefore(aCount, aVal, bCount, bVal int64) bool {
	return aCount < bCount || (aCount == bCount && aVal > bVal)
}

// siftDown restores the heap below index i after that slot's count grew.
func (s *SpaceSaving) siftDown(i int) {
	es, h, hpos := s.entries, s.heap, s.hpos
	slot := h[i]
	count, val := es[slot].count, es[slot].val
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		child := h[c]
		cCount, cVal := es[child].count, es[child].val
		if c+1 < len(h) {
			r := h[c+1]
			if rCount, rVal := es[r].count, es[r].val; evictsBefore(rCount, rVal, cCount, cVal) {
				c, child, cCount, cVal = c+1, r, rCount, rVal
			}
		}
		if !evictsBefore(cCount, cVal, count, val) {
			break
		}
		h[i], hpos[child] = child, int32(i)
		i = c
	}
	h[i], hpos[slot] = slot, int32(i)
}

// buildHeap heapifies the full arena.
func (s *SpaceSaving) buildHeap() {
	if cap(s.heap) < s.k {
		s.heap = make([]int32, s.k)
		s.hpos = make([]int32, s.k)
	}
	s.heap = s.heap[:s.k]
	for i := range s.heap {
		s.heap[i] = int32(i)
		s.hpos[i] = int32(i)
	}
	for i := s.k/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Push implements StatBlock. A full summary evicts the minimum counter —
// ties broken toward the largest value, so eviction is deterministic — and
// the newcomer inherits the evicted count as its error bound.
func (s *SpaceSaving) Push(_, v int64) {
	s.PushBatch(0, []int64{v})
}

// PushBatch implements StatBlock.
func (s *SpaceSaving) PushBatch(_ int64, vals []int64) {
	s.items += int64(len(vals))
	s.observe(vals)
}

// observe counts vals into the summary without booking them as consumed (see
// HLL.observe).
func (s *SpaceSaving) observe(vals []int64) {
	for _, v := range vals {
		slot := s.find(v)
		if slot < 0 {
			s.admit(v)
			continue
		}
		s.entries[slot].count++
		if len(s.heap) != 0 {
			s.siftDown(int(s.hpos[slot]))
		}
	}
}

// admit tracks a previously-unseen value, evicting the minimum counter when
// the summary is full. The evicted slot is recycled in place — no
// allocation on the steady-state path.
func (s *SpaceSaving) admit(v int64) {
	if len(s.entries) < s.k {
		s.track(v, 1, 0)
		return
	}
	if len(s.heap) == 0 {
		s.buildHeap()
	}
	evicted := s.entries[s.heap[0]].count
	s.replaceMin(v, evicted+1, evicted)
}

// replaceMin recycles the minimum counter's slot for v; the heap must be
// built.
func (s *SpaceSaving) replaceMin(v, count, errBound int64) {
	min := s.heap[0]
	s.tabDelete(min)
	s.entries[min] = ssEntry{val: v, count: count, err: errBound}
	s.tabInsert(v, min)
	s.siftDown(0)
}

// offerExact is one step of a top-k selection over exact (value, frequency)
// pairs, each value offered once: the summary keeps the k largest counts,
// ties toward the smaller value — the order Merge truncates by — with Err 0.
// What it holds afterwards is a SpaceSaving summary in good standing (every
// value it does not track has a frequency of at most its minimum count), so
// it merges and serialises like a streamed one; it is just never wrong. The
// return value is a count below which no later offer can enter.
func (s *SpaceSaving) offerExact(v, count int64) (floor int64) {
	if len(s.entries) < s.k {
		s.track(v, count, 0)
		return 0
	}
	if len(s.heap) == 0 {
		s.buildHeap()
	}
	if min := &s.entries[s.heap[0]]; evictsBefore(min.count, min.val, count, v) {
		s.replaceMin(v, count, 0)
	}
	return s.entries[s.heap[0]].count
}

// track installs a counter for an untracked value verbatim (first sighting,
// decode). The arena must have room.
func (s *SpaceSaving) track(v, count, errBound int64) {
	s.tabInsert(v, int32(len(s.entries)))
	s.entries = append(s.entries, ssEntry{val: v, count: count, err: errBound})
}

// Top returns up to n entries ordered by count descending, ties by value
// ascending — the same deterministic order the binary encoding uses.
func (s *SpaceSaving) Top(n int) []HeavyHitter {
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

// Estimate returns the count bounds for one value. ok is false when the
// value is untracked, in which case its true frequency is at most the
// summary's minimum count.
func (s *SpaceSaving) Estimate(v int64) (hh HeavyHitter, ok bool) {
	i := s.find(v)
	if i < 0 {
		return HeavyHitter{}, false
	}
	e := &s.entries[i]
	return HeavyHitter{Value: e.val, Count: e.count, Err: e.err}, true
}

// minCount returns the summary's minimum tracked count when at capacity, or
// 0 otherwise — the upper bound on any untracked value's true frequency.
func (s *SpaceSaving) minCount() int64 {
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

// Merge implements StatBlock: counters for the same value sum (counts and
// error bounds both); a value tracked on only one side also absorbs the
// other side's minimum count into count and error, because the value may
// have occurred up to that many times there before being evicted — without
// this the merged Count could undershoot the true frequency and break the
// f ≤ Count invariant. The summary then truncates back to the k largest
// counts, ties kept toward smaller values. When both sides are under
// capacity the minima are zero and the merge is the exact pairwise sum.
func (s *SpaceSaving) Merge(other StatBlock) error {
	o, ok := other.(*SpaceSaving)
	if !ok {
		return fmt.Errorf("sketch: merging %s into spacesaving", other.Kind())
	}
	if o.k != s.k {
		return fmt.Errorf("sketch: merging spacesaving k=%d into k=%d", o.k, s.k)
	}
	minS, minO := s.minCount(), o.minCount()
	for i := range s.entries {
		e := &s.entries[i]
		if o.find(e.val) < 0 {
			e.count += minO
			e.err += minO
		}
	}
	// Values only the other side tracks spill past the arena's k slots and
	// stay out of the table until the truncation below has picked survivors;
	// the other side's values are distinct, so no lookup can miss them.
	for j := range o.entries {
		oe := &o.entries[j]
		if i := s.find(oe.val); i >= 0 {
			s.entries[i].count += oe.count
			s.entries[i].err += oe.err
		} else {
			s.entries = append(s.entries, ssEntry{val: oe.val, count: oe.count + minS, err: oe.err + minS})
		}
	}
	if len(s.entries) > s.k {
		for i, hh := range s.Top(0)[:s.k] {
			s.entries[i] = ssEntry{val: hh.Value, count: hh.Count, err: hh.Err}
		}
		s.entries = s.entries[:s.k]
	}
	s.reindex()
	s.absorb(&o.blockBase)
	return nil
}
