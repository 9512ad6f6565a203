// Package datagen produces the deterministic synthetic data distributions
// used by the evaluation: uniform, Zipf-skewed (the Fig 20 sweep), and
// spiked distributions (the Fig 21 "small spikes at random prices"
// workload). Everything is seeded and reproducible across runs and
// platforms; no global state from math/rand is used.
package datagen

import (
	"fmt"
	"math"
	"sort"
)

// RNG is a small, fast, deterministic generator (splitmix64). It is good
// enough statistically for workload generation and, unlike math/rand's
// global functions, is fully reproducible and safe to embed per-generator.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("datagen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("datagen: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Generator yields one value per call.
type Generator interface {
	// Next returns the next value of the stream.
	Next() int64
}

// Uniform generates values uniformly from [Min, Min+Cardinality).
type Uniform struct {
	Min         int64
	Cardinality int64
	rng         *RNG
}

// NewUniform returns a uniform generator over [min, min+cardinality).
func NewUniform(seed uint64, min, cardinality int64) *Uniform {
	if cardinality <= 0 {
		panic("datagen: uniform cardinality must be positive")
	}
	return &Uniform{Min: min, Cardinality: cardinality, rng: NewRNG(seed)}
}

// Next returns the next uniform value.
func (u *Uniform) Next() int64 { return u.Min + u.rng.Int63n(u.Cardinality) }

// Zipf generates Zipf-distributed values with exponent S over a fixed
// cardinality. Rank r (1-based) has probability proportional to 1/r^S.
// S = 0 degenerates to uniform; the paper sweeps S ∈ {0, 0.35, 0.75, 1.0}
// in Fig 20 with cardinality 2048.
//
// Unlike math/rand's Zipf (which requires S > 1), this generator supports
// the full S >= 0 range by inverting a precomputed CDF, which is exact for
// the moderate cardinalities used in the evaluation.
type Zipf struct {
	Min         int64
	Cardinality int64
	S           float64

	cdf []float64 // cdf[i] = P(rank <= i+1)
	val []int64   // value assigned to rank i (shuffled so that rank != value order)
	rng *RNG
}

// NewZipf builds a Zipf generator. When shuffle is true the mapping from
// rank to value is a random permutation (so the heavy hitters are scattered
// across the value domain, as in real columns); when false rank i maps to
// value min+i, which is convenient for tests.
func NewZipf(seed uint64, min, cardinality int64, s float64, shuffle bool) *Zipf {
	if cardinality <= 0 {
		panic("datagen: zipf cardinality must be positive")
	}
	if s < 0 {
		panic("datagen: zipf exponent must be non-negative")
	}
	z := &Zipf{
		Min:         min,
		Cardinality: cardinality,
		S:           s,
		cdf:         make([]float64, cardinality),
		val:         make([]int64, cardinality),
		rng:         NewRNG(seed),
	}
	sum := 0.0
	for i := int64(0); i < cardinality; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.cdf[cardinality-1] = 1.0 // guard against rounding
	for i := int64(0); i < cardinality; i++ {
		z.val[i] = min + i
	}
	if shuffle {
		perm := z.rng.Perm(int(cardinality))
		for i, p := range perm {
			z.val[i] = min + int64(p)
		}
	}
	return z
}

// Next returns the next Zipf-distributed value.
func (z *Zipf) Next() int64 {
	u := z.rng.Float64()
	rank := sort.SearchFloat64s(z.cdf, u)
	if rank >= len(z.val) {
		rank = len(z.val) - 1
	}
	return z.val[rank]
}

// Spike describes one artificially inflated value: Count extra occurrences
// of Value are blended into a base stream.
type Spike struct {
	Value int64
	Count int64
}

// Spiked wraps a base generator and blends in spikes: each call emits either
// a pending spike occurrence (with probability proportional to the remaining
// spike mass) or the base generator's next value. Over n calls the expected
// number of occurrences of each spike value is its Count (exact when the
// stream length equals base mass + spike mass).
type Spiked struct {
	base      Generator
	remaining []Spike
	totalLeft int64 // spike occurrences not yet emitted
	baseLeft  int64 // base values not yet emitted
	rng       *RNG
}

// NewSpiked builds a spiked stream of exactly n values: n - sum(counts)
// values from base interleaved uniformly at random with the spike
// occurrences. It panics if the spikes alone exceed n.
func NewSpiked(seed uint64, base Generator, n int64, spikes []Spike) *Spiked {
	var spikeMass int64
	for _, s := range spikes {
		if s.Count < 0 {
			panic("datagen: negative spike count")
		}
		spikeMass += s.Count
	}
	if spikeMass > n {
		panic(fmt.Sprintf("datagen: spike mass %d exceeds stream length %d", spikeMass, n))
	}
	rem := make([]Spike, len(spikes))
	copy(rem, spikes)
	return &Spiked{
		base:      base,
		remaining: rem,
		totalLeft: spikeMass,
		baseLeft:  n - spikeMass,
		rng:       NewRNG(seed),
	}
}

// Next returns the next value of the spiked stream. After the configured
// length is exhausted it keeps returning base values.
func (s *Spiked) Next() int64 {
	total := s.totalLeft + s.baseLeft
	if total > 0 && s.totalLeft > 0 && s.rng.Int63n(total) < s.totalLeft {
		// Emit one spike occurrence, chosen proportionally to remaining counts.
		pick := s.rng.Int63n(s.totalLeft)
		for i := range s.remaining {
			if pick < s.remaining[i].Count {
				s.remaining[i].Count--
				s.totalLeft--
				return s.remaining[i].Value
			}
			pick -= s.remaining[i].Count
		}
		panic("datagen: spike selection out of range")
	}
	if s.baseLeft > 0 {
		s.baseLeft--
	}
	return s.base.Next()
}

// Hotspot draws a fraction of the stream from a small hot region at the
// start of the domain and the rest uniformly from the whole domain — the
// classic 80/20 access pattern, useful as a middle ground between uniform
// and Zipf when exercising the Binner's cache.
type Hotspot struct {
	Min         int64
	Cardinality int64
	// HotFraction of draws land in the hot set; HotSetFraction of the
	// domain is hot.
	HotFraction    float64
	HotSetFraction float64
	rng            *RNG
}

// NewHotspot builds an 80/20-style generator; fractions must be in (0, 1].
func NewHotspot(seed uint64, min, cardinality int64, hotFraction, hotSetFraction float64) *Hotspot {
	if cardinality <= 0 {
		panic("datagen: hotspot cardinality must be positive")
	}
	if hotFraction <= 0 || hotFraction > 1 || hotSetFraction <= 0 || hotSetFraction > 1 {
		panic("datagen: hotspot fractions must be in (0, 1]")
	}
	return &Hotspot{
		Min: min, Cardinality: cardinality,
		HotFraction: hotFraction, HotSetFraction: hotSetFraction,
		rng: NewRNG(seed),
	}
}

// Next returns the next hotspot-distributed value.
func (h *Hotspot) Next() int64 {
	hotSet := int64(float64(h.Cardinality) * h.HotSetFraction)
	if hotSet < 1 {
		hotSet = 1
	}
	if h.rng.Float64() < h.HotFraction {
		return h.Min + h.rng.Int63n(hotSet)
	}
	return h.Min + h.rng.Int63n(h.Cardinality)
}

// Sequential emits min, min+1, min+2, ... wrapping after cardinality values.
// It models dense key columns such as l_orderkey.
type Sequential struct {
	Min         int64
	Cardinality int64
	next        int64
}

// NewSequential returns a sequential generator.
func NewSequential(min, cardinality int64) *Sequential {
	if cardinality <= 0 {
		panic("datagen: sequential cardinality must be positive")
	}
	return &Sequential{Min: min, Cardinality: cardinality}
}

// Next returns the next sequential value.
func (s *Sequential) Next() int64 {
	v := s.Min + s.next
	s.next++
	if s.next == s.Cardinality {
		s.next = 0
	}
	return v
}

// Take draws n values from g into a fresh slice.
func Take(g Generator, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Counts tallies the exact frequency of every value in vs; a test oracle.
func Counts(vs []int64) map[int64]int64 {
	m := make(map[int64]int64)
	for _, v := range vs {
		m[v]++
	}
	return m
}
