package core

import (
	"fmt"
	"math"
)

// Preprocessor translates column values into bin addresses (§5.1.1): it
// subtracts the column minimum and optionally divides by a constant so that
// several consecutive values share a bin (e.g. second-granularity timestamps
// binned per day). Type unpacking (Oracle dates) has already happened in the
// Parser's value decoding, exactly where the paper places "convert a handful
// of predefined unpacked types to integers".
//
// Values outside [Min, Min+NumBins*Divisor) cannot be mapped to a bin; the
// hardware would drop them and raise a flag, and the model counts them.
type Preprocessor struct {
	// Min is the smallest value the host declared for the column.
	Min int64
	// Divisor coarsens the mapping; must be >= 1.
	Divisor int64
	// NumBins is the size of the memory region reserved for bins (Δ).
	NumBins int64
}

// NewPreprocessor validates and builds a preprocessor.
func NewPreprocessor(min, divisor, numBins int64) (*Preprocessor, error) {
	if divisor < 1 {
		return nil, fmt.Errorf("core: preprocessor divisor must be >= 1, got %d", divisor)
	}
	if numBins < 1 {
		return nil, fmt.Errorf("core: preprocessor needs at least one bin, got %d", numBins)
	}
	// The last bin must start at an int64 value; Address relies on it.
	if uint64(numBins-1) > (math.MaxInt64-uint64(min))/uint64(divisor) {
		return nil, fmt.Errorf("core: preprocessor range of %d bins of %d from %d overflows int64", numBins, divisor, min)
	}
	return &Preprocessor{Min: min, Divisor: divisor, NumBins: numBins}, nil
}

// RangeFor sizes a preprocessor to cover [min, max] at the given divisor.
func RangeFor(min, max, divisor int64) (*Preprocessor, error) {
	if max < min {
		return nil, fmt.Errorf("core: preprocessor range [%d, %d] is empty", min, max)
	}
	if divisor < 1 {
		return nil, fmt.Errorf("core: preprocessor divisor must be >= 1, got %d", divisor)
	}
	return NewPreprocessor(min, divisor, (max-min)/divisor+1)
}

// Address maps a value to its bin address; ok is false for out-of-range
// values (the Binner counts them as dropped). The offset from Min is taken in
// uint64, where it cannot overflow. With Divisor 1 one unsigned comparison
// is the whole range test: a value below Min wraps to an offset past every
// bin, because the last bin starts at an int64 value (NewPreprocessor).
// Other divisors divide once.
func (p *Preprocessor) Address(value int64) (addr int64, ok bool) {
	off := uint64(value) - uint64(p.Min)
	if p.Divisor != 1 {
		if value < p.Min {
			off = math.MaxUint64
		} else {
			off /= uint64(p.Divisor)
		}
	}
	if off >= uint64(p.NumBins) {
		return 0, false
	}
	return int64(off), true
}
