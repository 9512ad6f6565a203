package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"streamhist/internal/bins"
	"streamhist/internal/datagen"
	"streamhist/internal/hist"
	"streamhist/internal/tpch"
)

func zipfVec(n int, card int64, s float64, seed uint64) *bins.Vector {
	return bins.Build(datagen.Take(datagen.NewZipf(seed, 0, card, s, true), n), 1)
}

func runChain(vec *bins.Vector, blocks ...Block) ChainResult {
	return NewScanner().Run(vec, blocks...)
}

func TestInsertionListMatchesSortSemantics(t *testing.T) {
	l := newInsertionList(3)
	l.insert(10, 5)
	l.insert(20, 9)
	l.insert(30, 1)
	l.insert(40, 7)
	got := l.contents()
	want := []hist.FrequentValue{{Value: 20, Count: 9}, {Value: 40, Count: 7}, {Value: 10, Count: 5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
}

func TestInsertionListTieKeepsEarlierArrival(t *testing.T) {
	l := newInsertionList(2)
	l.insert(1, 5)
	l.insert(2, 5)
	l.insert(3, 5)
	got := l.contents()
	if got[0].Value != 1 || got[1].Value != 2 {
		t.Errorf("ties reordered: %v", got)
	}
}

func TestTopKBlockMatchesReference(t *testing.T) {
	vec := zipfVec(30000, 500, 0.9, 1)
	blk := NewTopKBlock(16)
	runChain(vec, blk)
	got := blk.Result()
	want := hist.BuildTopK(vec, 16)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestTopKBlockProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 64)
		}
		vec := bins.Build(vals, 1)
		blk := NewTopKBlock(8)
		runChain(vec, blk)
		got := blk.Result()
		want := hist.BuildTopK(vec, 8)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquiDepthBlockMatchesReference(t *testing.T) {
	vec := zipfVec(30000, 500, 0.8, 2)
	blk := NewEquiDepthBlock(32, vec.Total())
	runChain(vec, blk)
	got := blk.Result()
	want := hist.BuildEquiDepth(vec, 32).Buckets
	if len(got) != len(want) {
		t.Fatalf("buckets %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestEquiDepthBlockReconfigurableBuckets(t *testing.T) {
	// §5.2.1: the bucket count is a parameter that can change per request.
	vec := zipfVec(10000, 300, 0.6, 3)
	for _, b := range []int{4, 64, 256} {
		blk := NewEquiDepthBlock(b, vec.Total())
		runChain(vec, blk)
		if len(blk.Result()) == 0 {
			t.Errorf("B=%d produced no buckets", b)
		}
		var mass int64
		for _, bkt := range blk.Result() {
			mass += bkt.Count
		}
		if mass != vec.Total() {
			t.Errorf("B=%d mass = %d, want %d", b, mass, vec.Total())
		}
	}
}

func TestMaxDiffBlockMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		vec := zipfVec(20000, 400, 0.9, 10+seed)
		blk := NewMaxDiffBlock(16)
		runChain(vec, blk)
		got := blk.Result()
		want := hist.BuildMaxDiff(vec, 16).Buckets
		if len(got) != len(want) {
			t.Fatalf("seed %d: buckets %d != %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed %d bucket %d: %+v != %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestCompressedBlockMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		vec := zipfVec(20000, 400, 1.0, 20+seed)
		blk := NewCompressedBlock(8, 16, vec.Total())
		runChain(vec, blk)
		ref := hist.BuildCompressed(vec, 8, 16)
		gotF := blk.Frequent()
		if len(gotF) != len(ref.Frequent) {
			t.Fatalf("seed %d: frequent %d != %d", seed, len(gotF), len(ref.Frequent))
		}
		for i := range ref.Frequent {
			if gotF[i] != ref.Frequent[i] {
				t.Errorf("seed %d frequent %d: %+v != %+v", seed, i, gotF[i], ref.Frequent[i])
			}
		}
		gotB := blk.Buckets()
		if len(gotB) != len(ref.Buckets) {
			t.Fatalf("seed %d: buckets %d != %d", seed, len(gotB), len(ref.Buckets))
		}
		for i := range ref.Buckets {
			if gotB[i] != ref.Buckets[i] {
				t.Errorf("seed %d bucket %d: %+v != %+v", seed, i, gotB[i], ref.Buckets[i])
			}
		}
	}
}

func TestAllBlocksInOneChain(t *testing.T) {
	// §5.2: up to four statistical blocks operate on the same scan(s)
	// "in parallel, without additional overhead". Daisy-chaining all four
	// must give each block the same result as running alone.
	vec := zipfVec(25000, 600, 0.85, 30)
	topk := NewTopKBlock(8)
	ed := NewEquiDepthBlock(32, vec.Total())
	md := NewMaxDiffBlock(16)
	comp := NewCompressedBlock(8, 16, vec.Total())
	runChain(vec, topk, ed, md, comp)

	soloTopK := NewTopKBlock(8)
	runChain(vec, soloTopK)
	for i, f := range soloTopK.Result() {
		if topk.Result()[i] != f {
			t.Error("TopK differs when chained")
			break
		}
	}
	soloED := NewEquiDepthBlock(32, vec.Total())
	runChain(vec, soloED)
	for i, b := range soloED.Result() {
		if ed.Result()[i] != b {
			t.Error("EquiDepth differs when chained")
			break
		}
	}
	soloMD := NewMaxDiffBlock(16)
	runChain(vec, soloMD)
	for i, b := range soloMD.Result() {
		if md.Result()[i] != b {
			t.Error("MaxDiff differs when chained")
			break
		}
	}
}

func TestBlocksRejectBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTopKBlock(0) },
		func() { NewEquiDepthBlock(0, 10) },
		func() { NewMaxDiffBlock(0) },
		func() { NewCompressedBlock(0, 4, 10) },
		func() { NewCompressedBlock(4, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEncodeBuckets(t *testing.T) {
	bks := []hist.Bucket{{Low: 0, High: 4, Count: 100, Distinct: 5}, {Low: 5, High: 9, Count: 101, Distinct: 3}}
	enc := EncodeBuckets(bks)
	if len(enc) != 16 {
		t.Fatalf("encoded %d bytes", len(enc))
	}
	if binary.LittleEndian.Uint32(enc[0:4]) != 100 || binary.LittleEndian.Uint32(enc[4:8]) != 5 {
		t.Error("first bucket encoding wrong")
	}
	if binary.LittleEndian.Uint32(enc[8:12]) != 101 || binary.LittleEndian.Uint32(enc[12:16]) != 3 {
		t.Error("second bucket encoding wrong")
	}
}

// BenchmarkHistChain is the host cost of the histogram chain a served scan
// runs at finish — Compressed(T=64, B=64) over the merged bin region — on the
// two region shapes the benchmark of record reads out: l_extendedprice
// (≈ 10 M bins, sparse, counts 1–2) and l_orderkey (dense). ns/bin is per
// occupied bin, the bins that reach a block; the cycle model prices Δ and
// does not move.
func BenchmarkHistChain(b *testing.B) {
	rel := tpch.Lineitem(200_000, 1, 42)
	for _, col := range []string{"l_extendedprice", "l_orderkey"} {
		b.Run(col, func(b *testing.B) {
			vec := columnRegion(b, rel.ColumnByName(col))
			s := NewScanner()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(vec, NewCompressedBlock(64, 64, vec.Total()))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vec.Cardinality()), "ns/bin")
		})
	}
}
