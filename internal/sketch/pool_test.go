package sketch

import (
	"bytes"
	"testing"
)

func poolChainRun(t *testing.T, spec ChainSpec, vals []int64) [][]byte {
	t.Helper()
	c := NewChain(spec)
	c.PushAll(vals)
	raws, err := EncodeBlocks(c.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	return raws
}

// TestChainReleaseReuseBitIdentical: a chain whose blocks come out of the
// pools (previous chains' released HLL register files, SpaceSaving arenas
// with their slot table and eviction heap, window buffers) must encode
// byte-for-byte like a chain built cold. Enough distinct values are pushed
// to make the HLL sticky-dense, so the recycled register file has to come
// back with its dense flag and touched count reset, not just its registers.
func TestChainReleaseReuseBitIdentical(t *testing.T) {
	spec := ChainSpec{NDVPrecision: 10, HeavyK: 16, WindowW: 64}
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i*i%9973) * 3 // plenty of distinct values: dense HLL
	}
	want := poolChainRun(t, spec, vals)
	for round := 0; round < 4; round++ {
		got := poolChainRun(t, spec, vals)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d: block %d encoding drifted under pooled reuse", round, i)
			}
		}
	}
}

// TestChainReuseAcrossGeometries: pooled blocks are only reused when their
// geometry matches the requested spec; a chain asking for different
// parameters right after a release must not inherit the stale shape.
func TestChainReuseAcrossGeometries(t *testing.T) {
	vals := make([]int64, 5_000)
	for i := range vals {
		vals[i] = int64(i % 701)
	}
	// Warm the pools with one geometry, then run a different one twice —
	// the first of the pair misses the pool, the second reuses the first's
	// release. Both must agree.
	poolChainRun(t, ChainSpec{NDVPrecision: 12, HeavyK: 32, WindowW: 128}, vals)
	other := ChainSpec{NDVPrecision: 9, HeavyK: 8, WindowW: 16}
	want := poolChainRun(t, other, vals)
	got := poolChainRun(t, other, vals)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d encoding depends on pool history across geometries", i)
		}
	}
}

// TestChainReuseAfterDegradedRelease: a chain that took sketch faults
// (degraded and retired blocks) releases state in an unusual shape — a
// retired HLL's register file still marked dense, degraded flags set. The
// next chain built over that state must be indistinguishable from clean.
func TestChainReuseAfterDegradedRelease(t *testing.T) {
	spec := ChainSpec{NDVPrecision: 10, HeavyK: 16, WindowW: 64}
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64((i * 37) % 4096)
	}
	want := poolChainRun(t, spec, vals)

	dirty := NewChain(spec)
	dirty.PushAll(vals[:4_000])
	for _, b := range dirty.Blocks() {
		b.MarkDegraded()
	}
	dirty.Release()

	got := poolChainRun(t, spec, vals)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d encoding drifted after a degraded chain's release", i)
		}
	}
}
