package core

import (
	"bytes"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/sketch"
)

var foldTestSpec = sketch.ChainSpec{NDVPrecision: 10, HeavyK: 16, WindowW: 64}

// foldTestBinner builds a lossless binner over poolTestValues' range with a
// chain riding it; mutate adjusts the config first.
func foldTestBinner(t *testing.T, mutate func(*BinnerConfig)) *Binner {
	t.Helper()
	pre, err := RangeFor(0, 1<<14-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBinnerConfig()
	cfg.Sketches = sketch.NewChain(foldTestSpec)
	if mutate != nil {
		mutate(&cfg)
	}
	return NewBinner(cfg, pre)
}

func encodeChain(t *testing.T, c *sketch.Chain) [][]byte {
	t.Helper()
	raws, err := sketch.EncodeBlocks(c.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return raws
}

// streamedChain is the reference: a standalone chain that saw every value.
func streamedChain(t *testing.T, vals []int64) [][]byte {
	t.Helper()
	ref := sketch.NewChain(foldTestSpec)
	ref.PushAll(vals)
	return encodeChain(t, ref)
}

// TestFaultInjectedChainsStillStream: a fault on the bin memory can lose a
// count, and a sketch fault is defined by where in the stream it strikes, so
// with an injector on either the chain is not deferred — even one that never
// fires leaves all three blocks, SpaceSaving included, the streamed ones.
func TestFaultInjectedChainsStillStream(t *testing.T) {
	vals := poolTestValues(30_000)
	want := streamedChain(t, vals)
	quiet := func() *faults.Injector { return faults.New(1, faults.Profile{}) }
	for name, mutate := range map[string]func(*BinnerConfig){
		"binner faults": func(cfg *BinnerConfig) { cfg.Faults = quiet() },
		"chain faults":  func(cfg *BinnerConfig) { cfg.Sketches.SetFaults(quiet()) },
	} {
		b := foldTestBinner(t, mutate)
		if b.chain.Deferred() {
			t.Fatalf("%s: chain was deferred", name)
		}
		b.PushAll(vals)
		b.Finish()
		got := encodeChain(t, b.SketchChain())
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: block %d differs from the streamed chain's", name, i)
			}
		}
	}
}

// TestAdoptedChainFoldsOnce: a binner without a chain that merges one with a
// deferred chain (the inline replay lane's shape) adopts the chain and the
// duty to fold it. However often and through whichever binner the chain is
// then read, the fold runs once: counts are the true frequencies, not
// multiples of them.
func TestAdoptedChainFoldsOnce(t *testing.T) {
	vals := poolTestValues(30_000)
	want := streamedChain(t, vals)

	bare := foldTestBinner(t, func(cfg *BinnerConfig) { cfg.Sketches = nil })
	lane := foldTestBinner(t, nil)
	lane.PushAll(vals)
	lane.FoldSketches()
	if err := bare.Merge(lane); err != nil {
		t.Fatal(err)
	}
	if !bare.chain.Deferred() {
		t.Fatal("adopted chain lost its mode")
	}
	first := encodeChain(t, bare.SketchChain())
	if bare.chain.Deferred() {
		t.Fatal("chain still deferred after it was read")
	}
	if lane.SketchChain() != bare.SketchChain() {
		t.Fatal("adoption copied the chain")
	}
	again := encodeChain(t, bare.SketchChain())
	for i := range first {
		if !bytes.Equal(first[i], again[i]) {
			t.Fatalf("block %d changed between two reads", i)
		}
	}
	if !bytes.Equal(first[0], want[0]) || !bytes.Equal(first[2], want[2]) {
		t.Fatal("HLL or window differs from the streamed chain's")
	}
	freq := make(map[int64]int64)
	for _, v := range vals {
		freq[v]++
	}
	for _, hh := range bare.SketchChain().Blocks().Heavy().Top(0) {
		if hh.Err != 0 || hh.Count != freq[hh.Value] {
			t.Fatalf("value %d: count %d err %d, true frequency %d", hh.Value, hh.Count, hh.Err, freq[hh.Value])
		}
	}
}

// TestMergeDeferredWithStreamed: when only one of two lanes deferred, one
// fold over the merged bins would count the streamed lane's values twice. The
// deferred side folds over its own region first, whichever side it is; the
// HLL is still the streamed one and the heavy hitters keep their guarantee.
func TestMergeDeferredWithStreamed(t *testing.T) {
	vals := poolTestValues(30_000)
	want := streamedChain(t, vals)
	freq := make(map[int64]int64)
	for _, v := range vals {
		freq[v]++
	}
	half := len(vals) / 2
	streams := func(cfg *BinnerConfig) { cfg.Sketches.SetFaults(faults.New(1, faults.Profile{})) }
	for name, mutators := range map[string][2]func(*BinnerConfig){
		"deferred absorbs streamed": {nil, streams},
		"streamed absorbs deferred": {streams, nil},
	} {
		a, b := foldTestBinner(t, mutators[0]), foldTestBinner(t, mutators[1])
		a.PushAll(vals[:half])
		b.SetStreamPos(int64(half))
		b.PushAll(vals[half:])
		if err := a.Merge(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a.Finish()
		blocks := a.SketchChain().Blocks()
		got := encodeChain(t, a.SketchChain())
		if !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[2], want[2]) {
			t.Fatalf("%s: HLL or window differs from the streamed chain's", name)
		}
		if blocks.Heavy().Items() != int64(len(vals)) {
			t.Fatalf("%s: heavy hitters booked %d of %d values", name, blocks.Heavy().Items(), len(vals))
		}
		for _, hh := range blocks.Heavy().Top(0) {
			if f := freq[hh.Value]; hh.Count < f || hh.Count > f+hh.Err {
				t.Fatalf("%s: value %d count %d err %d breaks f ≤ Count ≤ f+Err (f = %d)",
					name, hh.Value, hh.Count, hh.Err, f)
			}
		}
	}
}
