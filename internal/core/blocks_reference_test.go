package core

import (
	"fmt"
	"slices"
	"testing"

	"streamhist/internal/bins"
	"streamhist/internal/hist"
	"streamhist/internal/tpch"
)

// The TopK register file and the two-pass blocks as they shipped before the
// list dropped arrivals at its entry and the second passes took a sorted
// cursor: every arrival walks all K slots, Compressed asks the list for
// membership slot by slot, and Max-diff keeps its boundaries in a map. Kept
// as executable specifications; TestBlocksMatchFullWalkReference drives
// them and the live blocks through one chain and requires identical output.
// They take the Scanner's batches a bin at a time (perBin).

type refList struct {
	slots []hist.FrequentValue
	used  int
}

func (l *refList) insert(value, count int64) {
	cur := hist.FrequentValue{Value: value, Count: count}
	for i := 0; i < len(l.slots); i++ {
		if i >= l.used {
			l.slots[i] = cur
			l.used++
			return
		}
		if ranksAbove(cur, l.slots[i]) {
			l.slots[i], cur = cur, l.slots[i]
		}
	}
}

func (l *refList) contains(value int64) bool {
	for i := 0; i < l.used; i++ {
		if l.slots[i].Value == value {
			return true
		}
	}
	return false
}

func (l *refList) contents() []hist.FrequentValue { return slices.Clone(l.slots[:l.used]) }

// refBlock is the common Block plumbing of the references.
type refBlock struct {
	name  string
	scans int
}

func (b *refBlock) Name() string         { return b.name }
func (b *refBlock) NeedsScan(s int) bool { return s < b.scans }
func (b *refBlock) Scans() int           { return b.scans }
func (b *refBlock) EndScan(int)          {}

// perBin hands a batch to consume one bin at a time.
func perBin(s int, values, counts []int64, consume func(s int, value, count int64)) {
	for k, v := range values {
		consume(s, v, counts[k])
	}
}

type refTopK struct {
	refBlock
	list *refList
}

func newRefTopK(k int) *refTopK {
	return &refTopK{refBlock{"refTopK", 1}, &refList{slots: make([]hist.FrequentValue, k)}}
}

func (b *refTopK) BeginScan(int) { b.list.used = 0 }
func (b *refTopK) Consume(s int, values, counts []int64) {
	perBin(s, values, counts, func(_ int, value, c int64) { b.list.insert(value, c) })
}

type refMaxDiff struct {
	refBlock
	b         int
	diffs     *refList
	ordinal   int64
	prevCount int64
	havePrev  bool
	boundary  map[int64]bool
	cur       hist.Bucket
	buckets   []hist.Bucket
}

func newRefMaxDiff(b int) *refMaxDiff {
	return &refMaxDiff{refBlock: refBlock{"refMaxDiff", 2}, b: b, diffs: &refList{slots: make([]hist.FrequentValue, b)}}
}

func (b *refMaxDiff) BeginScan(s int) {
	b.ordinal = 0
	if s == 0 {
		b.diffs.used, b.havePrev = 0, false
		return
	}
	b.boundary = make(map[int64]bool)
	for i, e := range b.diffs.contents() {
		if i < b.b-1 {
			b.boundary[e.Value] = true
		}
	}
	b.cur, b.buckets = hist.Bucket{}, nil
}

func (b *refMaxDiff) Consume(s int, values, counts []int64) { perBin(s, values, counts, b.consume) }

func (b *refMaxDiff) consume(s int, value, count int64) {
	if s == 0 {
		if b.havePrev {
			b.diffs.insert(b.ordinal-1, max(count-b.prevCount, b.prevCount-count))
		}
		b.prevCount, b.havePrev = count, true
	} else {
		if b.cur.Distinct == 0 {
			b.cur.Low = value
		}
		b.cur.Count += count
		b.cur.Distinct++
		b.cur.High = value
		if b.boundary[b.ordinal] {
			b.buckets = append(b.buckets, b.cur)
			b.cur = hist.Bucket{}
		}
	}
	b.ordinal++
}

func (b *refMaxDiff) EndScan(s int) {
	if s == 1 && b.cur.Distinct > 0 {
		b.buckets = append(b.buckets, b.cur)
	}
}

type refCompressed struct {
	refBlock
	t, b  int
	total int64
	top   *refList
	ed    *EquiDepthBlock
}

func newRefCompressed(t, b int, total int64) *refCompressed {
	return &refCompressed{refBlock: refBlock{"refCompressed", 2}, t: t, b: b, total: total,
		top: &refList{slots: make([]hist.FrequentValue, t)}}
}

func (b *refCompressed) BeginScan(s int) {
	if s == 0 {
		b.top.used = 0
		return
	}
	var mass int64
	for _, f := range b.top.contents() {
		mass += f.Count
	}
	b.ed = NewEquiDepthBlock(b.b, b.total-mass)
	b.ed.BeginScan(0)
}

func (b *refCompressed) Consume(s int, values, counts []int64) { perBin(s, values, counts, b.consume) }

func (b *refCompressed) consume(s int, value, count int64) {
	switch {
	case s == 0:
		b.top.insert(value, count)
	case !b.top.contains(value):
		b.ed.Consume(0, []int64{value}, []int64{count})
	}
}

func (b *refCompressed) EndScan(s int) {
	if s == 1 {
		b.ed.EndScan(0)
	}
}

// columnRegion bins vals the way a served lane does — the binner picks the
// host form from the range — and returns the finished region.
func columnRegion(tb testing.TB, vals []int64) *bins.Vector {
	tb.Helper()
	lo, hi, err := ColumnRange(vals)
	if err != nil {
		tb.Fatal(err)
	}
	pre, err := RangeFor(lo, hi, 1)
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBinner(DefaultBinnerConfig(), pre)
	b.PushAll(vals)
	vec, _ := b.Finish()
	return vec
}

// referenceRegions are the bin shapes the served scans read out:
// l_extendedprice (≈ 10 M sparse bins, counts 1–2, ties everywhere),
// l_orderkey (dense, counts 1–7) and a handful of bins, fewer than any list.
func referenceRegions(tb testing.TB) map[string]*bins.Vector {
	rel := tpch.Lineitem(20_000, 1, 42)
	few := bins.NewVector(100, 200, 1)
	for i, c := range []int64{3, 1, 1, 7, 2, 2, 1} {
		few.AddAt(i*13, c)
	}
	return map[string]*bins.Vector{
		"l_extendedprice": columnRegion(tb, rel.ColumnByName("l_extendedprice")),
		"l_orderkey":      columnRegion(tb, rel.ColumnByName("l_orderkey")),
		"few":             few,
	}
}

func TestBlocksMatchFullWalkReference(t *testing.T) {
	regions := referenceRegions(t)
	if f := regions["l_extendedprice"]; f.Form() != bins.Sparse || f.NumBins() < 5_000_000 {
		t.Fatalf("l_extendedprice region is %d bins in form %d, want a sparse wide one", f.NumBins(), f.Form())
	}
	for name, vec := range regions {
		for _, tb := range [][2]int{{64, 64}, {1, 1}, {1, 64}, {64, 1}, {200, 16}} {
			t.Run(fmt.Sprintf("%s/T=%d,B=%d", name, tb[0], tb[1]), func(t *testing.T) {
				k, b := tb[0], tb[1]
				topk, rtopk := NewTopKBlock(k), newRefTopK(k)
				md, rmd := NewMaxDiffBlock(b), newRefMaxDiff(b)
				comp, rcomp := NewCompressedBlock(k, b, vec.Total()), newRefCompressed(k, b, vec.Total())
				runChain(vec, topk, rtopk, md, rmd, comp, rcomp)
				if !slices.Equal(topk.Result(), rtopk.list.contents()) {
					t.Errorf("TopK %v, reference %v", topk.Result(), rtopk.list.contents())
				}
				if !slices.Equal(md.Result(), rmd.buckets) {
					t.Errorf("MaxDiff %d buckets, reference %d, or contents differ", len(md.Result()), len(rmd.buckets))
				}
				if !slices.Equal(comp.Frequent(), rcomp.top.contents()) {
					t.Errorf("Compressed frequent %v, reference %v", comp.Frequent(), rcomp.top.contents())
				}
				if !slices.Equal(comp.Buckets(), rcomp.ed.Result()) {
					t.Errorf("Compressed %d buckets, reference %d, or contents differ", len(comp.Buckets()), len(rcomp.ed.Result()))
				}
				if k == 64 && b == 64 {
					want := hist.BuildCompressed(vec, k, b)
					if !slices.Equal(comp.Frequent(), want.Frequent) || !slices.Equal(comp.Buckets(), want.Buckets) {
						t.Error("Compressed block differs from hist.BuildCompressed")
					}
				}
			})
		}
	}
}
