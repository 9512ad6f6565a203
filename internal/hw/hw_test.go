package hw

import (
	"math"
	"testing"
	"unsafe"
)

func TestClockConversions(t *testing.T) {
	clk := NewClock(150_000_000)
	if s := clk.Seconds(150_000_000); s != 1 {
		t.Errorf("Seconds(1s of cycles) = %v", s)
	}
	if clk.String() != "150 MHz" {
		t.Errorf("String = %q", clk.String())
	}
}

func TestClockRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClock(0)
}

func TestMemParamsDefaults(t *testing.T) {
	m := DefaultMemParams()
	if m.LatencyCycles != 60 {
		t.Errorf("latency = %d", m.LatencyCycles)
	}
	if m.RandomOpsPerSec != 40_000_000 {
		t.Errorf("random ops = %d", m.RandomOpsPerSec)
	}
	if m.BinsPerLine != 8 {
		t.Errorf("bins/line = %d", m.BinsPerLine)
	}
	clk := NewClock(DefaultClockHz)
	// The op-rate bound: 40 M random accesses/s at 150 MHz is one per 3.75
	// cycles.
	if p := float64(clk.Hz) / float64(m.RandomOpsPerSec); p != 3.75 {
		t.Errorf("op period = %v cycles, want 3.75", p)
	}
	// The measured 0.4µs latency of §4: 60 cycles at 150 MHz.
	if s := clk.Seconds(m.LatencyCycles); math.Abs(s-400e-9) > 1e-18 {
		t.Errorf("latency = %vs, want 400ns", s)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1024, LineBytes, 64) // 16 lines
	if c.Lines() != 16 {
		t.Fatalf("lines = %d", c.Lines())
	}
	if c.Lookup(1) {
		t.Error("cold lookup hit")
	}
	c.Insert(1)
	if !c.Lookup(1) {
		t.Error("resident lookup missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheEvictionFIFO(t *testing.T) {
	c := NewCache(2*LineBytes, LineBytes, 64) // 2 lines
	c.Insert(1)
	c.Insert(2)
	c.Insert(3) // evicts 1
	if c.Contains(1) {
		t.Error("line 1 should have been evicted")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Error("lines 2 and 3 should be resident")
	}
	// Re-inserting a resident line must not evict anything.
	c.Insert(2)
	if !c.Contains(3) {
		t.Error("refresh of resident line evicted another line")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0, LineBytes, 64)
	c.Insert(1)
	if c.Lookup(1) {
		t.Error("zero-size cache should always miss")
	}
	if c.Lines() != 0 {
		t.Errorf("lines = %d", c.Lines())
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1024, LineBytes, 64)
	c.Insert(7)
	c.Lookup(7)
	c.Reset()
	if c.Contains(7) || c.Hits() != 0 || c.Misses() != 0 {
		t.Error("Reset incomplete")
	}
}

// TestCacheOutOfUniverseLine: a line address outside the declared universe
// (negative, at the edge, far past it) is uncacheable — it misses, Insert
// ignores it, and it can neither evict a resident line nor take a ring slot.
func TestCacheOutOfUniverseLine(t *testing.T) {
	c := NewCache(2*LineBytes, LineBytes, 8) // 2 lines over lines 0..7
	if c.Universe() != 8 {
		t.Fatalf("universe = %d", c.Universe())
	}
	c.Insert(3)
	c.Insert(7)
	for _, line := range []int64{-1, 8, 1 << 40} {
		c.Insert(line)
		if c.Contains(line) || c.Lookup(line) {
			t.Errorf("line %d outside the universe is resident", line)
		}
	}
	if !c.Contains(3) || !c.Contains(7) {
		t.Error("an out-of-universe insert evicted a resident line")
	}
	if c.Hits() != 0 || c.Misses() != 3 {
		t.Errorf("hits=%d misses=%d, want 0 and 3", c.Hits(), c.Misses())
	}
	// The ring still holds exactly the two in-universe lines: the next
	// insert evicts the oldest of them, not a phantom.
	c.Insert(5)
	if c.Contains(3) || !c.Contains(7) || !c.Contains(5) {
		t.Error("FIFO order disturbed by out-of-universe inserts")
	}
}

// TestCacheResetIsSparse: Reset clears residence through the ring, so a
// reset cache over a wide universe is indistinguishable from a new one
// whatever was resident, including after the ring wrapped.
func TestCacheResetIsSparse(t *testing.T) {
	const universe = 1<<20 + 17 // past the old map-form cut-off
	c := NewCache(4*LineBytes, LineBytes, universe)
	for i := int64(0); i < 100; i++ {
		c.Insert(i * 10_007 % universe)
		c.Lookup(i)
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("Reset kept statistics")
	}
	for i := int64(0); i < universe; i++ {
		if c.Contains(i) {
			t.Fatalf("line %d still resident after Reset", i)
		}
	}
	// And it fills from empty again: four inserts, no eviction.
	for i := int64(0); i < 4; i++ {
		c.Insert(universe - 1 - i)
	}
	for i := int64(0); i < 4; i++ {
		if !c.Contains(universe - 1 - i) {
			t.Fatalf("line %d missing after refill", universe-1-i)
		}
	}
}

func TestCacheRejectsBadLineSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache(1024, 0, 64)
}

// TestCacheCoversLatencyWindow checks the §5.1.3 sizing argument: the 1 KB
// cache (16 lines of 8 bins) can hold the maximum number of distinct lines
// touched within the memory access latency window. At the worst-case rate
// of one item per 7.5 cycles (20 M/s) and 60 cycles latency, at most 8
// items are in flight — at most 8 distinct lines, comfortably below 16.
func TestCacheCoversLatencyWindow(t *testing.T) {
	itemsInFlight := int(float64(DefaultMemLatencyCycles) /
		(float64(DefaultClockHz) / float64(DefaultMemRandomOpsPerSec) * 2))
	lines := DefaultCacheBytes / LineBytes
	if itemsInFlight > lines {
		t.Errorf("latency window holds %d items but cache has only %d lines", itemsInFlight, lines)
	}
}

func TestAggregationCycles(t *testing.T) {
	// Δ=4096 bins at 8 bins per line: 512 lockstep line reads, regardless
	// of replica count.
	if c := AggregationCycles(4096, DefaultBinsPerLine); c != 512 {
		t.Errorf("AggregationCycles(4096) = %d, want 512", c)
	}
	// Partial last line rounds up.
	if c := AggregationCycles(9, 8); c != 2 {
		t.Errorf("AggregationCycles(9) = %d, want 2", c)
	}
	// Zero-size region costs nothing; default bins-per-line kicks in for
	// non-positive line sizes.
	if c := AggregationCycles(0, 8); c != 0 {
		t.Errorf("AggregationCycles(0) = %d, want 0", c)
	}
	if c := AggregationCycles(16, 0); c != 2 {
		t.Errorf("AggregationCycles(16, default) = %d, want 2", c)
	}
}

func TestCriticalPath(t *testing.T) {
	if c := CriticalPath([]int64{100, 350, 200}, 12); c != 362 {
		t.Errorf("CriticalPath = %d, want 362", c)
	}
	// No lanes: just the aggregation pass.
	if c := CriticalPath(nil, 7); c != 7 {
		t.Errorf("CriticalPath(nil) = %d, want 7", c)
	}
}

// TestCacheIsWholeHostLines: a lane's cache model and its tables fill whole
// host cache lines, so two lanes' caches never share one.
func TestCacheIsWholeHostLines(t *testing.T) {
	if s := unsafe.Sizeof(Cache{}); s%hostLine != 0 {
		t.Fatalf("a Cache is %d bytes, not whole %d-byte lines", s, hostLine)
	}
	for _, universe := range []int64{1, 7, 64, 1000} {
		c := NewCache(3*LineBytes, LineBytes, universe)
		if b := cap(c.ring) * 8; b%hostLine != 0 {
			t.Fatalf("universe %d: ring takes %d bytes", universe, b)
		}
		if b := cap(c.resident); b%hostLine != 0 {
			t.Fatalf("universe %d: residence table takes %d bytes", universe, b)
		}
	}
}
