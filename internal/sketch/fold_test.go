package sketch

import (
	"bytes"
	"testing"

	"streamhist/internal/bins"
	"streamhist/internal/faults"
)

// TestChainFoldFromBins drives the deferred protocol directly: book the
// stream, fold from a bin vector built over the same values, and compare with
// a chain that streamed them.
func TestChainFoldFromBins(t *testing.T) {
	vals := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		vals = append(vals, int64(i*i%97)) // 49 distinct residues, uneven counts
	}
	spec := ChainSpec{NDVPrecision: 8, HeavyK: 4, WindowW: 16}
	ref := NewChain(spec)
	ref.PushAll(vals)

	c := NewChain(spec)
	if c.Defer(); !c.Deferred() {
		t.Fatal("a chain without fault points refused to defer")
	}
	c.PushAll(vals[:3000])
	for _, v := range vals[3000:] {
		c.Push(v)
	}
	if got := c.Blocks().HLL().Estimate(); got != 0 {
		t.Fatalf("deferred HLL saw values before the fold: estimate %v", got)
	}
	if c.TotalCycles() != ref.TotalCycles() {
		t.Fatalf("booked cycles %d, streamed %d", c.TotalCycles(), ref.TotalCycles())
	}
	vec := bins.Build(vals, 1)
	c.FoldDistinct(vec)
	c.FoldDistinct(vec)
	c.Fold(vec)
	c.Fold(vec)
	if c.Deferred() {
		t.Fatal("still deferred after Fold")
	}
	if c.TotalCycles() != ref.TotalCycles() {
		t.Fatalf("cycles moved across the fold: %d, streamed %d", c.TotalCycles(), ref.TotalCycles())
	}
	for i, b := range c.Blocks() {
		if b.Kind() == KindSpaceSaving {
			continue
		}
		got, _ := b.MarshalBinary()
		want, _ := ref.Blocks()[i].MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the streamed block", b.Name())
		}
	}
	// Exact top-4, count descending, ties toward the smaller value — the
	// order Merge truncates by.
	var want []HeavyHitter
	vec.Occupied(func(i int, count int64) { want = append(want, HeavyHitter{Value: vec.Value(i), Count: count}) })
	all := NewSpaceSaving(len(want))
	for _, hh := range want {
		all.track(hh.Value, hh.Count, 0)
	}
	got := c.Blocks().Heavy().Top(0)
	for i, hh := range all.Top(4) {
		if got[i] != hh {
			t.Errorf("heavy hitter %d = %+v, want %+v", i, got[i], hh)
		}
	}
	if len(got) != 4 {
		t.Errorf("%d heavy hitters, want 4", len(got))
	}
}

// TestDeferRefusals: a chain with fault points never defers, and two chains
// fed in different modes cannot be merged — one fold cannot serve both.
func TestDeferRefusals(t *testing.T) {
	spec := DefaultChainSpec()
	faulty := NewChain(spec)
	faulty.SetFaults(faults.New(1, faults.Profile{}))
	if faulty.Defer(); faulty.Deferred() {
		t.Fatal("a chain with an injector deferred")
	}
	late := NewChain(spec)
	late.Defer()
	late.SetFaults(faults.New(1, faults.Profile{}))
	if late.Deferred() {
		t.Fatal("wiring fault points left the chain deferred")
	}
	var none *Chain
	if none.Defer(); none.Deferred() {
		t.Fatal("nil chain deferred")
	}
	none.Observe(1)
	none.FoldDistinct(nil)
	none.Fold(nil)

	deferred, streamed := NewChain(spec), NewChain(spec)
	deferred.Defer()
	if err := deferred.Merge(streamed); err == nil {
		t.Error("deferred.Merge(streamed) succeeded")
	}
	if err := streamed.Merge(deferred); err == nil {
		t.Error("streamed.Merge(deferred) succeeded")
	}
}
