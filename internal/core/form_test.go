package core

import (
	"bytes"
	"reflect"
	"testing"

	"streamhist/internal/bins"
	"streamhist/internal/datagen"
	"streamhist/internal/hist"
	"streamhist/internal/sketch"
)

// The bin region's host form is storage, not model: a binner forced into
// either form must produce the same accounting, bins, histogram, read-out
// cycles and sketch encodings from the same input.

// formView is everything observable about a finished binner.
type formView struct {
	stats  BinnerStats
	bins   []bins.Bin
	comp   *hist.Histogram
	chain  ChainResult
	sketch [][]byte
}

func (v formView) equal(o formView) bool {
	if v.stats != o.stats || !reflect.DeepEqual(v.bins, o.bins) || !reflect.DeepEqual(v.comp, o.comp) ||
		!reflect.DeepEqual(v.chain, o.chain) || len(v.sketch) != len(o.sketch) {
		return false
	}
	for i := range v.sketch {
		if !bytes.Equal(v.sketch[i], o.sketch[i]) {
			return false
		}
	}
	return true
}

// formBinner builds a binner in form over [min, max] at divisor, with the
// default sketch chain riding it.
func formBinner(t *testing.T, cfg BinnerConfig, min, max, divisor int64, form bins.Form) *Binner {
	t.Helper()
	pre, err := RangeFor(min, max, divisor)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketches = sketch.NewChain(sketch.DefaultChainSpec())
	b := newBinner(cfg, pre, form)
	if got := b.vec.Form(); got != form {
		t.Fatalf("asked for form %d, got %d", form, got)
	}
	return b
}

// pushPages feeds vals in page-sized batches, the way a lane does.
func pushPages(b *Binner, vals []int64) {
	for off := 0; off < len(vals); off += 127 {
		b.PushAll(vals[off:min(off+127, len(vals))])
	}
}

// readOut finishes b and reads it out through the Histogram module.
func readOut(t *testing.T, b *Binner) formView {
	t.Helper()
	_, stats := b.Finish()
	res := Config{CompressedT: 64, CompressedBuckets: 64}.Results(b, stats, nil)
	raws, err := sketch.EncodeBlocks(res.Sketches)
	if err != nil {
		t.Fatal(err)
	}
	return formView{stats, res.Bins.NonZero(), res.Compressed, res.Chain, raws}
}

// formValues is a seeded hotspot stream over [0, n) — hot values that stall
// an uncached pipeline, the rest scattered — with one value in twenty
// outside the range on either side, so that drops are counted too.
func formValues(seed uint64, n int64, count int) []int64 {
	vals := datagen.Take(datagen.NewHotspot(seed, 0, n, 0.5, 1e-4), count)
	for i := 0; i < len(vals); i += 20 {
		if i%40 == 0 {
			vals[i] = -1 - vals[i]
		} else {
			vals[i] += n
		}
	}
	return vals
}

func TestHostFormIsInvisibleToTheModel(t *testing.T) {
	const n = 1 << 20
	nocache := DefaultBinnerConfig()
	nocache.CacheBytes = 0
	for _, tc := range []struct {
		name    string
		cfg     BinnerConfig
		divisor int64
	}{
		{"cache", DefaultBinnerConfig(), 1},
		{"nocache", nocache, 1},
		{"divisor7", DefaultBinnerConfig(), 7},
		{"divisor7-nocache", nocache, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := formValues(31, n*tc.divisor, 60_000)
			var views [2]formView
			for _, form := range []bins.Form{bins.Dense, bins.Sparse} {
				b := formBinner(t, tc.cfg, 0, n*tc.divisor-1, tc.divisor, form)
				pushPages(b, vals)
				if got := b.vec.Form(); got != form {
					t.Fatalf("form %d was promoted to %d", form, got)
				}
				views[form] = readOut(t, b)
				b.Release()
			}
			if st := views[bins.Dense].stats; st.Dropped == 0 || st.StallCycles == 0 {
				t.Fatalf("input does not exercise the case: %+v", st)
			}
			if !views[bins.Sparse].equal(views[bins.Dense]) {
				t.Fatalf("sparse region reads differently:\nsparse %+v\ndense  %+v", views[bins.Sparse].stats, views[bins.Dense].stats)
			}
		})
	}
}

// TestPromotionPartWayIsInvisible: a region forced sparse over a range its
// values fill densely outgrows the dense form within a few batches and is
// promoted between two of them; the finished binner matches one that was
// dense throughout.
func TestPromotionPartWayIsInvisible(t *testing.T) {
	const n = 1 << 14
	vals := formValues(5, n, 40_000)
	for _, cfg := range []BinnerConfig{DefaultBinnerConfig(), {CacheBytes: 0}} {
		dense := formBinner(t, cfg, 0, n-1, 1, bins.Dense)
		pushPages(dense, vals)
		want := readOut(t, dense)

		b := formBinner(t, cfg, 0, n-1, 1, bins.Sparse)
		b.PushAll(vals[:127])
		if b.vec.Form() != bins.Sparse {
			t.Fatal("promoted after one batch")
		}
		pushPages(b, vals[127:])
		if b.vec.Form() != bins.Dense || b.haz.slots != nil {
			t.Fatal("a region as full as its range was never promoted")
		}
		if got := readOut(t, b); !got.equal(want) {
			t.Fatalf("promoted region reads differently:\ngot  %+v\nwant %+v", got.stats, want.stats)
		}
		dense.Release()
		b.Release()
	}
}

// TestMixedFormLaneMerge: two lanes merged in every pairing of forms read
// out as two dense lanes do.
func TestMixedFormLaneMerge(t *testing.T) {
	const n = 1 << 20
	vals := formValues(77, n, 40_000)
	merged := func(survivor, other bins.Form) formView {
		a := formBinner(t, DefaultBinnerConfig(), 0, n-1, 1, survivor)
		b := formBinner(t, DefaultBinnerConfig(), 0, n-1, 1, other)
		pushPages(a, vals[:len(vals)/2])
		pushPages(b, vals[len(vals)/2:])
		a.FoldSketches()
		b.FoldSketches()
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		v := readOut(t, a)
		a.Release()
		b.Release()
		return v
	}
	want := merged(bins.Dense, bins.Dense)
	for _, forms := range [][2]bins.Form{{bins.Dense, bins.Sparse}, {bins.Sparse, bins.Dense}, {bins.Sparse, bins.Sparse}} {
		if got := merged(forms[0], forms[1]); !got.equal(want) {
			t.Fatalf("forms %v merge differently:\ngot  %+v\nwant %+v", forms, got.stats, want.stats)
		}
	}
}

// TestPooledSparseScratch: a sparse lane built on scratch another sparse
// lane released — tables dirty, of another scan's size — matches a fresh
// one, and once warm a sparse lane allocates what a dense one does: the
// binner and its parking slip, no table.
func TestPooledSparseScratch(t *testing.T) {
	const n = 1 << 23
	vals := formValues(9, n, 30_000)
	emptyFreeList()
	run := func(vals []int64) formView {
		b := formBinner(t, DefaultBinnerConfig(), 0, n-1, 1, bins.Sparse)
		pushPages(b, vals)
		v := readOut(t, b)
		b.SketchChain().Release()
		b.Release()
		return v
	}
	fresh := run(vals)
	run(formValues(10, n, 50_000))
	if got := run(vals); !got.equal(fresh) {
		t.Fatalf("pooled sparse lane reads differently:\ngot  %+v\nwant %+v", got.stats, fresh.stats)
	}

	allocs := func(form bins.Form) float64 {
		pre, err := RangeFor(0, n-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		lane := func() {
			b := newBinner(DefaultBinnerConfig(), pre, form)
			pushPages(b, vals)
			b.Finish()
			b.Release()
		}
		lane()
		return testing.AllocsPerRun(5, lane)
	}
	if s, d := allocs(bins.Sparse), allocs(bins.Dense); s > d {
		t.Fatalf("a warm sparse lane allocates %.0f times, a dense one %.0f", s, d)
	}
}
