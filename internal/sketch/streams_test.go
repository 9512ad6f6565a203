package sketch

import "math/rand"

// pageRows is the batch size the serving path feeds a chain: the rows of one
// fully packed lineitem page.
const pageRows = 127

// streamRegimes are the column shapes the paper distinguishes, as value
// generators shared by the differential tests and BenchmarkChainPushAll.
var streamRegimes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []int64
}{
	// l_quantity: 50 distinct values against k=16 counters, so SpaceSaving
	// evicts on most values and the HLL never leaves its sparse form.
	{"lowcard", func(rng *rand.Rand, n int) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = 1 + rng.Int63n(50)
		}
		return vals
	}},
	// l_orderkey: ascending sparse keys, each repeated for one to seven rows
	// and never seen again.
	{"sequential", func(rng *rand.Rand, n int) []int64 {
		vals := make([]int64, 0, n)
		for key := int64(1); len(vals) < n; key += 1 + rng.Int63n(4) {
			for r := 1 + rng.Intn(7); r > 0 && len(vals) < n; r-- {
				vals = append(vals, key)
			}
		}
		return vals
	}},
	// l_extendedprice: about a million distinct values in a 10 M domain.
	{"wide", func(rng *rand.Rand, n int) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = 90_000 + rng.Int63n(10_400_000)
		}
		return vals
	}},
}
