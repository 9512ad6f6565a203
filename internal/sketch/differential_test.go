package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// diffPair is one live block and its reference implementation (see
// reference_test.go) under the same geometry.
type diffPair struct {
	name string
	live func() StatBlock
	ref  func() StatBlock
}

// diffPairs covers the serving geometry (p12, k16, W1024) and the corners
// around it: an HLL that goes dense within a few values and one that does so
// mid-stream, a single-counter and a never-evicting SpaceSaving, and windows
// narrower than one batch, narrower than one page, and of width one.
var diffPairs = []diffPair{
	{"hll/p12", func() StatBlock { return NewHLL(12) }, func() StatBlock { return newRefHLL(12) }},
	{"hll/p8", func() StatBlock { return NewHLL(8) }, func() StatBlock { return newRefHLL(8) }},
	{"hll/p4", func() StatBlock { return NewHLL(4) }, func() StatBlock { return newRefHLL(4) }},
	{"spacesaving/k16", func() StatBlock { return NewSpaceSaving(16) }, func() StatBlock { return newRefSpaceSaving(16) }},
	{"spacesaving/k1", func() StatBlock { return NewSpaceSaving(1) }, func() StatBlock { return newRefSpaceSaving(1) }},
	{"spacesaving/k64", func() StatBlock { return NewSpaceSaving(64) }, func() StatBlock { return newRefSpaceSaving(64) }},
	{"window/w1024", func() StatBlock { return NewWindow(1024) }, func() StatBlock { return newRefWindow(1024) }},
	{"window/w100", func() StatBlock { return NewWindow(100) }, func() StatBlock { return newRefWindow(100) }},
	{"window/w1", func() StatBlock { return NewWindow(1) }, func() StatBlock { return newRefWindow(1) }},
}

func encoding(t *testing.T, b StatBlock) []byte {
	t.Helper()
	raw, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// diffCheck runs one scenario per regime and pair, once over the live block
// and once over the reference, and requires the encodings the scenario
// snapshots along the way to agree byte for byte. isLive lets a scenario put
// the live block through code the reference has no counterpart of.
func diffCheck(t *testing.T, n int, scenario func(t *testing.T, vals []int64, mk func() StatBlock, isLive bool) [][]byte) {
	for _, regime := range streamRegimes {
		vals := regime.gen(rand.New(rand.NewSource(int64(n))), n)
		for _, p := range diffPairs {
			t.Run(regime.name+"/"+p.name, func(t *testing.T) {
				got := scenario(t, vals, p.live, true)
				want := scenario(t, vals, p.ref, false)
				if len(got) != len(want) {
					t.Fatalf("%d live snapshots, %d reference snapshots", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("snapshot %d of %d: live encoding differs from the reference", i, len(want))
					}
				}
			})
		}
	}
}

func TestDifferentialPush(t *testing.T) {
	diffCheck(t, 20_000, func(t *testing.T, vals []int64, mk func() StatBlock, _ bool) [][]byte {
		b := mk()
		var snaps [][]byte
		for i, v := range vals {
			b.Push(int64(i), v)
			if i%1999 == 0 {
				snaps = append(snaps, encoding(t, b))
			}
		}
		return append(snaps, encoding(t, b))
	})
}

func TestDifferentialPushBatch(t *testing.T) {
	diffCheck(t, 60_000, func(t *testing.T, vals []int64, mk func() StatBlock, _ bool) [][]byte {
		b := mk()
		rng := rand.New(rand.NewSource(5))
		var snaps [][]byte
		for off := 0; off < len(vals); {
			// Mostly pages, now and then a batch wider than the window.
			n := pageRows
			switch rng.Intn(8) {
			case 0:
				n = 1 + rng.Intn(16)
			case 1:
				n = 1 + rng.Intn(3000)
			}
			if n > len(vals)-off {
				n = len(vals) - off
			}
			b.PushBatch(int64(off), vals[off:off+n])
			off += n
			if rng.Intn(16) == 0 {
				snaps = append(snaps, encoding(t, b))
			}
		}
		return append(snaps, encoding(t, b))
	})
}

// eachPage calls f with every page-sized batch of vals and the stream
// position of its first value.
func eachPage(vals []int64, f func(pos int64, page []int64)) {
	for off := 0; off < len(vals); off += pageRows {
		end := off + pageRows
		if end > len(vals) {
			end = len(vals)
		}
		f(int64(off), vals[off:end])
	}
}

// dealFrames feeds vals to lanes the way the server's side path does: pages
// grouped into 16-page frames, frames dealt round-robin.
func dealFrames(lanes []StatBlock, vals []int64) {
	eachPage(vals, func(pos int64, page []int64) {
		frame := int(pos) / (16 * pageRows)
		lanes[frame%len(lanes)].PushBatch(pos, page)
	})
}

func TestDifferentialShardedMerge(t *testing.T) {
	diffCheck(t, 50_000, func(t *testing.T, vals []int64, mk func() StatBlock, _ bool) [][]byte {
		var snaps [][]byte
		for nLanes := 1; nLanes <= 8; nLanes++ {
			lanes := make([]StatBlock, nLanes)
			for i := range lanes {
				lanes[i] = mk()
			}
			dealFrames(lanes, vals)
			// Fan-in in reverse, so every merge folds older positions into
			// newer ones as well as the other way round.
			for i := nLanes - 1; i > 0; i-- {
				if err := lanes[i-1].Merge(lanes[i]); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, encoding(t, lanes[i-1]))
			}
			snaps = append(snaps, encoding(t, lanes[0]))
		}
		return snaps
	})
}

// A retired lane's chunks are replayed into a surviving lane late: batches
// whose positions lie below — or in between — what the block already holds.
func TestDifferentialOutOfOrderReplay(t *testing.T) {
	diffCheck(t, 40_000, func(t *testing.T, vals []int64, mk func() StatBlock, _ bool) [][]byte {
		b := mk()
		rng := rand.New(rand.NewSource(9))
		var snaps [][]byte
		type heldPage struct {
			pos  int64
			page []int64
		}
		var held []heldPage // withheld for replay
		eachPage(vals, func(pos int64, page []int64) {
			if rng.Intn(4) == 0 {
				held = append(held, heldPage{pos, page})
			} else {
				b.PushBatch(pos, page)
			}
			if len(held) > 0 && rng.Intn(6) == 0 {
				// Replay newest first, one value of each through Push.
				for i := len(held) - 1; i >= 0; i-- {
					h := held[i]
					b.Push(h.pos, h.page[0])
					b.PushBatch(h.pos+1, h.page[1:])
				}
				held = held[:0]
				snaps = append(snaps, encoding(t, b))
			}
		})
		return append(snaps, encoding(t, b))
	})
}

// A block decoded from its own encoding must carry on exactly like the block
// that never left memory.
func TestDifferentialDecodeThenPush(t *testing.T) {
	diffCheck(t, 30_000, func(t *testing.T, vals []int64, mk func() StatBlock, isLive bool) [][]byte {
		b := mk()
		var snaps [][]byte
		const stride = 40 * pageRows
		for off := 0; off < len(vals); off += stride {
			chunk := vals[off:min(off+stride, len(vals))]
			eachPage(chunk, func(pos int64, page []int64) { b.PushBatch(int64(off)+pos, page) })
			raw := encoding(t, b)
			snaps = append(snaps, raw)
			if isLive {
				back, err := Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				b = back
			}
		}
		return snaps
	})
}

// A chain built from pooled state (Release → NewChain) must encode like
// reference blocks that never saw the earlier stream.
func TestDifferentialPooledReuse(t *testing.T) {
	for _, spec := range []ChainSpec{
		DefaultChainSpec(),
		{NDVPrecision: 6, HeavyK: 3, WindowW: 50},
	} {
		for round, regime := range streamRegimes {
			t.Run(fmt.Sprintf("p%d/%s", spec.NDVPrecision, regime.name), func(t *testing.T) {
				vals := regime.gen(rand.New(rand.NewSource(int64(round))), 30_000)
				refs := Blocks{newRefHLL(spec.NDVPrecision), newRefSpaceSaving(spec.HeavyK), newRefWindow(spec.WindowW)}
				c := NewChain(spec) // pooled from the previous round, if any
				eachPage(vals, func(pos int64, page []int64) {
					for _, r := range refs {
						r.PushBatch(pos, page)
					}
					c.SetPos(pos)
					c.PushAll(page)
				})
				for i, b := range c.Blocks() {
					if !bytes.Equal(encoding(t, b), encoding(t, refs[i])) {
						t.Errorf("pooled %s differs from a fresh reference", b.Name())
					}
				}
				c.Release()
			})
		}
	}
}

// The steady state of the side path's feed — a warm chain taking page after
// page — must not allocate, in any regime.
func TestChainPushAllDoesNotAllocate(t *testing.T) {
	for _, regime := range streamRegimes {
		vals := regime.gen(rand.New(rand.NewSource(1)), 64*pageRows)
		c := NewChain(DefaultChainSpec())
		pos := int64(0)
		pass := func() {
			eachPage(vals, func(off int64, page []int64) {
				c.SetPos(pos + off)
				c.PushAll(page)
			})
			pos += int64(len(vals))
		}
		pass() // warm: buffers grown, SpaceSaving full and its heap built
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%s: %v allocations per %d-page pass, want 0", regime.name, allocs, len(vals)/pageRows)
		}
	}
}
