package core

import "math/bits"

// lineTable is a lane's on-chip state, kept per memory line: whether the
// write-through cache of §5.1.3 holds the line, and the cycle at which the
// line's last write commits. A row probes it once, for both answers — "hit?"
// and "stall until when?" — so the binner's host state per row does not grow
// with the region, as the circuit's does not.
//
// The table is open-addressed and holds only the lines that can still change
// a row's timing: the resident ones, at most the cache's capacity, and the
// ones whose write commits after the memory port's budget time. The rest are
// swept out (see sweep); a line absent from the table reads as not resident
// with no write pending, which is how the circuit would see it. The cache
// itself is a FIFO ring of the resident lines' slots, as in the hardware's
// "items currently in the pipeline" framing: a miss evicts the oldest line.
type lineTable struct {
	slots []lineSlot // a power of two long
	spare []lineSlot // the next sweep's destination, zero, len(slots) long or nil
	used  int
	shift uint8 // 64 − log2(len(slots))

	// ring holds the slots of the resident lines, oldest at head once full;
	// cacheLines is its capacity, 0 when the cache is off.
	ring       []int32
	head       int
	cacheLines int
}

// lineSlot is one line's entry; it holds its key beside its state, so a probe
// touches one host cache line.
type lineSlot struct {
	key      uint32 // line+1, 0 for a free slot
	resident bool
	commit   float64
}

// minLineSlots is the smallest table, in slots: 16 KB, well inside a core's
// private cache, and room for the default cache's 16 lines and the writes in
// flight within a memory latency many times over.
const minLineSlots = 1 << 10

// lineKey is line's key. A region's lines fit in 32 bits: a sparse region
// has fewer than 2^32 bins, and a dense one of 2^35 bins would hold 128 GiB
// of counts.
func lineKey(line int64) uint32 { return uint32(line) + 1 }

// homeSlot is key's first slot in a table whose shift is shift: Fibonacci
// hashing, whose top bits spread a run of consecutive lines over the whole
// table.
func homeSlot(key uint32, shift uint8) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> (shift & 63))
}

// probe returns key's slot and true, or the free slot it would take and
// false.
func (t *lineTable) probe(key uint32) (int, bool) {
	mask := len(t.slots) - 1
	for j := homeSlot(key, t.shift); ; j = (j + 1) & mask {
		switch t.slots[j].key {
		case key:
			return j, true
		case 0:
			return j, false
		}
	}
}

// find returns key's slot, adding the line when the table lacks it. Adding
// to a half-full table sweeps it at opTime first.
func (t *lineTable) find(key uint32, opTime float64) int {
	j, ok := t.probe(key)
	if ok {
		return j
	}
	if 2*(t.used+1) > len(t.slots) {
		t.sweep(opTime)
		j, _ = t.probe(key)
	}
	t.slots[j].key = key
	t.used++
	return j
}

// admit makes slot j's line resident, evicting the oldest resident line when
// the cache is full; a no-op when the cache is off.
func (t *lineTable) admit(j int) {
	if t.cacheLines == 0 {
		return
	}
	if len(t.ring) < t.cacheLines {
		t.ring = append(t.ring, int32(j))
	} else {
		t.slots[t.ring[t.head]].resident = false
		t.ring[t.head] = int32(j)
		if t.head++; t.head == t.cacheLines {
			t.head = 0
		}
	}
	t.slots[j].resident = true
}

// sweep drops the lines that are neither resident nor have a write
// committing after opTime, and doubles the table when what stays fills more
// than a quarter of it. Dropping is exact: a read issues at max(pipeline
// time, opTime) ≥ opTime, and opTime never decreases, so a dropped commit
// could never again exceed a read's issue cycle and stall it — and an absent
// line reads as commit 0, which does not either.
func (t *lineTable) sweep(opTime float64) {
	t.rehash(len(t.slots), opTime)
	if 4*t.used > len(t.slots) {
		t.rehash(2*len(t.slots), opTime)
	}
}

// rehash moves the lines sweep keeps at opTime into a table of size slots:
// the parked spare when it is that long. The old table is parked, cleared,
// when the new one is as long.
func (t *lineTable) rehash(size int, opTime float64) {
	old := t.slots
	if len(t.spare) == size {
		t.slots = t.spare
	} else {
		t.slots = make([]lineSlot, size)
	}
	t.shift, t.used = uint8(64-bits.TrailingZeros(uint(size))), 0
	for _, s := range old {
		if s.resident || s.commit > opTime {
			j, _ := t.probe(s.key)
			t.slots[j] = s
			t.used++
		}
	}
	for k, j := range t.ring {
		j, _ := t.probe(old[j].key)
		t.ring[k] = int32(j)
	}
	t.spare = nil
	if len(old) == size {
		clear(old)
		t.spare = old
	}
}

// reset empties t for a cache of cacheLines lines, keeping its storage.
func (t *lineTable) reset(cacheLines int) {
	if t.slots == nil {
		t.slots = make([]lineSlot, minLineSlots)
		t.shift = uint8(64 - bits.TrailingZeros(minLineSlots))
	} else {
		clear(t.slots)
	}
	t.used = 0
	if cap(t.ring) < cacheLines {
		// Whole 64-byte host lines: a lane writes its ring on every miss, so
		// two lanes' rings must not share one (see bins.Vector).
		t.ring = make([]int32, 0, (cacheLines+15)/16*16)
	}
	t.ring, t.head, t.cacheLines = t.ring[:0], 0, cacheLines
}
