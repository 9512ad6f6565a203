package sketch

import (
	"math/rand"
	"testing"
)

// BenchmarkChainPushAll times the side path's per-value sketch work: a chain
// fed page-sized batches through SetPos + PushAll, the default chain and each
// of its blocks alone, over each column regime. The chain is warm (one pass
// before the timer starts), so the figures are the steady state a served
// scan pays; ns/value is the number to compare across commits.
func BenchmarkChainPushAll(b *testing.B) {
	def := DefaultChainSpec()
	blocks := []struct {
		name string
		spec ChainSpec
	}{
		{"chain", def},
		{"hll", ChainSpec{NDVPrecision: def.NDVPrecision}},
		{"spacesaving", ChainSpec{HeavyK: def.HeavyK}},
		{"window", ChainSpec{WindowW: def.WindowW}},
	}
	const pages = 1024
	for _, regime := range streamRegimes {
		vals := regime.gen(rand.New(rand.NewSource(42)), pages*pageRows)
		for _, blk := range blocks {
			b.Run(blk.name+"/"+regime.name, func(b *testing.B) {
				c := NewChain(blk.spec)
				pos := int64(0)
				pass := func() {
					for off := 0; off < len(vals); off += pageRows {
						c.SetPos(pos)
						c.PushAll(vals[off : off+pageRows])
						pos += pageRows
					}
				}
				pass()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
			})
		}
	}
}
