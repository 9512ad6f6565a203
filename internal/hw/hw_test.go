package hw

import (
	"math"
	"testing"
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
