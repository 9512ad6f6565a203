package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog distinct-count sketch over one flat file of 2^p
// registers. Register state is a pointwise maximum, so merge is commutative
// and associative and the merged sketch is byte-identical to the serial one
// under any lane sharding.
//
// Sparse and dense are forms of the *encoding*, not of the state: while at
// most an eighth of the registers are touched the sketch serialises as
// (index, rank) pairs, and once it has passed that mark — or absorbed a
// sketch that had — it serialises as the whole register file, for good.
type HLL struct {
	blockBase
	p uint8  // precision: 2^p registers
	m uint32 // register count

	regs    []uint8 // max rank per register; 0 = untouched
	touched uint32  // registers holding a non-zero rank
	// dense is the sticky encoding form: set once touched passes m/8, or
	// when a dense sketch is merged in or decoded.
	dense bool
}

// hllMinPrecision..hllMaxPrecision bound the register file: 16 registers to
// 64 Ki registers.
const (
	hllMinPrecision = 4
	hllMaxPrecision = 16
)

// clampPrecision bounds p into [hllMinPrecision, hllMaxPrecision].
func clampPrecision(precision int) int {
	if precision < hllMinPrecision {
		precision = hllMinPrecision
	}
	if precision > hllMaxPrecision {
		precision = hllMaxPrecision
	}
	return precision
}

// NewHLL returns a sketch with 2^p registers, clamping p into [4, 16].
func NewHLL(precision int) *HLL {
	precision = clampPrecision(precision)
	return &HLL{
		p:    uint8(precision),
		m:    1 << precision,
		regs: make([]uint8, 1<<precision),
	}
}

// Kind implements StatBlock.
func (h *HLL) Kind() Kind { return KindHLL }

// Name implements StatBlock.
func (h *HLL) Name() string { return "hll" }

// Precision returns p (tests, rendering).
func (h *HLL) Precision() int { return int(h.p) }

// hashValue mixes a column value into 64 well-distributed bits (the
// splitmix64 finaliser — the same mixer the fault injector's streams use).
func hashValue(v int64) uint64 {
	x := uint64(v) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Push implements StatBlock. The stream position is irrelevant to a
// distinct count; the signature is the chain's uniform contract.
func (h *HLL) Push(_, v int64) {
	h.PushBatch(0, []int64{v})
}

// PushBatch implements StatBlock. The position argument is irrelevant to a
// distinct count.
func (h *HLL) PushBatch(_ int64, vals []int64) {
	h.items += int64(len(vals))
	h.observe(vals)
}

// observe raises the registers for vals without counting them as consumed:
// the half of PushBatch a deferred chain runs later, once per distinct value
// (Chain.FoldDistinct). Registers are a pointwise maximum over the value
// *set*, so how often and in what order a value is observed does not show.
func (h *HLL) observe(vals []int64) {
	regs, touched := h.regs, h.touched
	shift := 64 - h.p
	// The guard bit sits just below the rank bits: it stops the zero count
	// at 64-p when they are all zero, and is out of reach otherwise.
	guard := uint64(1) << (h.p - 1)
	for _, v := range vals {
		x := hashValue(v)
		idx := x >> shift
		rank := uint8(bits.LeadingZeros64(x<<h.p|guard)) + 1
		if old := regs[idx]; rank > old {
			if old == 0 {
				touched++
			}
			regs[idx] = rank
		}
	}
	h.touched = touched
	h.noteFill()
}

// noteFill latches the dense form once more than an eighth of the register
// file is in use.
func (h *HLL) noteFill() {
	if h.touched > h.m/8 {
		h.dense = true
	}
}

// Estimate returns the distinct-count estimate: the standard bias-corrected
// harmonic mean, with linear counting below 2.5·m where raw HLL is biased.
func (h *HLL) Estimate() float64 {
	m := float64(h.m)
	var sum float64
	var zeros float64
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	raw := alpha(h.m) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/zeros)
	}
	return raw
}

// alpha is the HyperLogLog bias-correction constant for m registers.
func alpha(m uint32) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge implements StatBlock: registers take the pointwise maximum, which
// is exactly what a serial run over the union of the streams would hold.
func (h *HLL) Merge(other StatBlock) error {
	o, ok := other.(*HLL)
	if !ok {
		return fmt.Errorf("sketch: merging %s into hll", other.Kind())
	}
	if o.p != h.p {
		return fmt.Errorf("sketch: merging hll precision %d into %d", o.p, h.p)
	}
	for idx, rank := range o.regs {
		if old := h.regs[idx]; rank > old {
			if old == 0 {
				h.touched++
			}
			h.regs[idx] = rank
		}
	}
	h.dense = h.dense || o.dense
	h.noteFill()
	h.absorb(&o.blockBase)
	return nil
}
