package core

import (
	"math"
	"testing"
)

func TestPreprocessorBasicMapping(t *testing.T) {
	p, err := NewPreprocessor(100, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := p.Address(100); !ok || a != 0 {
		t.Errorf("Address(100) = %d, %v", a, ok)
	}
	if a, ok := p.Address(149); !ok || a != 49 {
		t.Errorf("Address(149) = %d, %v", a, ok)
	}
}

func TestPreprocessorOutOfRange(t *testing.T) {
	p, _ := NewPreprocessor(100, 1, 50)
	if _, ok := p.Address(99); ok {
		t.Error("below-min value mapped")
	}
	if _, ok := p.Address(150); ok {
		t.Error("above-range value mapped")
	}
}

func TestPreprocessorDivisor(t *testing.T) {
	// Timestamp-seconds to days: divisor 86400 (the §5.1.1 example).
	p, err := RangeFor(0, 10*86400-1, 86400)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBins != 10 {
		t.Fatalf("NumBins = %d", p.NumBins)
	}
	if a, _ := p.Address(0); a != 0 {
		t.Errorf("Address(0) = %d", a)
	}
	if a, _ := p.Address(86399); a != 0 {
		t.Errorf("Address(86399) = %d", a)
	}
	if a, _ := p.Address(86400); a != 1 {
		t.Errorf("Address(86400) = %d", a)
	}
}

func TestPreprocessorNegativeDomain(t *testing.T) {
	// c_acctbal spans [-99999, 999999]; subtraction of the min must map
	// the whole domain onto non-negative addresses.
	p, err := RangeFor(-99999, 999999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := p.Address(-99999); !ok || a != 0 {
		t.Errorf("Address(min) = %d, %v", a, ok)
	}
	if a, ok := p.Address(0); !ok || a != 99999 {
		t.Errorf("Address(0) = %d, %v", a, ok)
	}
}

func TestPreprocessorValidation(t *testing.T) {
	if _, err := NewPreprocessor(0, 0, 10); err == nil {
		t.Error("divisor 0 accepted")
	}
	if _, err := NewPreprocessor(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := RangeFor(10, 5, 1); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := RangeFor(0, 10, 0); err == nil {
		t.Error("RangeFor divisor 0 accepted")
	}
}

// TestAddressOffsetOverflow: far above a range that starts below zero, v−Min
// overflowed int64 into a negative address, and PushAll indexed the region
// with it. Such a value is dropped like any other past the range, at every
// divisor.
func TestAddressOffsetOverflow(t *testing.T) {
	const far = math.MaxInt64 - 5
	for _, divisor := range []int64{1, 7} {
		pre, err := RangeFor(-10, 100, divisor)
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := pre.Address(far); ok {
			t.Fatalf("divisor %d: Address(MaxInt64-5) = %d, in range", divisor, a)
		}
		pre, _ = RangeFor(-10, 100, divisor)
		b := NewBinner(DefaultBinnerConfig(), pre)
		b.PushAll([]int64{far, math.MinInt64, -10})
		vec, st := b.Finish()
		if st.Dropped != 2 || st.Items != 1 || vec.CountValue(far) != 0 || vec.CountValue(-10) != 1 {
			t.Fatalf("divisor %d: dropped %d, items %d, far count %d", divisor, st.Dropped, st.Items, vec.CountValue(far))
		}
	}
	// The divisor-1 range test relies on the last bin starting at an int64.
	if _, err := NewPreprocessor(math.MaxInt64-5, 1, 10); err == nil {
		t.Error("a range past MaxInt64 accepted")
	}
	if _, err := NewPreprocessor(math.MaxInt64-5, 1, 6); err != nil {
		t.Errorf("a range ending at MaxInt64 rejected: %v", err)
	}
}
