package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
)

// tracked returns v's bounds from the summary, ok false when v is untracked.
func tracked(s *SpaceSaving, v int64) (hh HeavyHitter, ok bool) {
	for _, hh := range s.Top(0) {
		if hh.Value == v {
			return hh, true
		}
	}
	return HeavyHitter{}, false
}

// retiredBlocks counts c's blocks detached from the stream by faults.
func retiredBlocks(c *Chain) int {
	n := 0
	for i := range c.slots {
		if c.slots[i].retired {
			n++
		}
	}
	return n
}

// --- HLL ---

func TestHLLEmpty(t *testing.T) {
	h := NewHLL(12)
	if got := h.Estimate(); got != 0 {
		t.Fatalf("empty HLL estimate = %v, want 0", got)
	}
	if h.Items() != 0 {
		t.Fatalf("empty HLL items = %d", h.Items())
	}
	if h.dense {
		t.Fatal("empty HLL should be sparse")
	}
}

func TestHLLSingleValue(t *testing.T) {
	h := NewHLL(12)
	for i := 0; i < 1000; i++ {
		h.Push(int64(i), 42)
	}
	est := h.Estimate()
	if est < 0.5 || est > 1.5 {
		t.Fatalf("single-value HLL estimate = %v, want ~1", est)
	}
	if h.Items() != 1000 {
		t.Fatalf("items = %d, want 1000", h.Items())
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 10_000, 200_000} {
		h := NewHLL(12)
		for i := 0; i < n; i++ {
			h.Push(int64(i), int64(i))
		}
		est := h.Estimate()
		// Standard error for p=12 is ~1.04/sqrt(4096) ≈ 1.6%; allow 5σ.
		tol := 0.09 * float64(n)
		if math.Abs(est-float64(n)) > tol {
			t.Errorf("n=%d: estimate %v off by more than %v", n, est, tol)
		}
	}
}

func TestHLLMergeWithEmpty(t *testing.T) {
	h := NewHLL(10)
	for i := 0; i < 5000; i++ {
		h.Push(int64(i), int64(i%777))
	}
	before, _ := h.MarshalBinary()
	beforeItems := h.Items()

	if err := h.Merge(NewHLL(10)); err != nil {
		t.Fatal(err)
	}
	after, _ := h.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("merging an empty HLL changed register state")
	}
	if h.Items() != beforeItems {
		t.Fatalf("merging empty changed items: %d -> %d", beforeItems, h.Items())
	}

	// The other direction: empty.Merge(full) must equal full.
	empty := NewHLL(10)
	if err := empty.Merge(h); err != nil {
		t.Fatal(err)
	}
	got, _ := empty.MarshalBinary()
	if !bytes.Equal(got, after) {
		t.Fatal("empty.Merge(full) is not byte-identical to full")
	}
}

func TestHLLSparseDenseBoundary(t *testing.T) {
	// p=4 → m=16 registers, promotion threshold m/8 = 2 touched registers:
	// the boundary is crossed almost immediately, exercising both paths.
	h := NewHLL(4)
	if h.dense {
		t.Fatal("fresh HLL not sparse")
	}
	var crossed bool
	for i := 0; i < 1000; i++ {
		h.Push(int64(i), int64(i))
		if h.dense {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Fatal("HLL never promoted to dense")
	}

	// A sparse and a dense sketch over the same values must estimate alike:
	// run the same stream into a big-p (stays sparse) and verify a serial
	// sparse sketch merged into a dense one equals the all-serial dense.
	serial := NewHLL(8)
	left := NewHLL(8)
	right := NewHLL(8)
	for i := 0; i < 600; i++ {
		serial.Push(int64(i), int64(i*37))
		if i < 580 {
			left.Push(int64(i), int64(i*37))
		} else {
			right.Push(int64(i), int64(i*37))
		}
	}
	// The mixed merge needs a dense target and a sparse source: 20 values
	// cannot touch more than the m/8 = 32 registers that end the sparse form.
	if !serial.dense || !left.dense {
		t.Fatal("precondition: serial and left sketches should be dense")
	}
	if right.dense {
		t.Fatal("precondition: right sketch should still be sparse")
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	want, _ := serial.MarshalBinary()
	got, _ := left.MarshalBinary()
	if !bytes.Equal(want, got) {
		t.Fatal("sparse/dense mixed merge not byte-identical to serial")
	}
}

func TestHLLMergeErrors(t *testing.T) {
	h := NewHLL(10)
	if err := h.Merge(NewHLL(12)); err == nil {
		t.Fatal("merging mismatched precision should fail")
	}
	if err := h.Merge(NewWindow(4)); err == nil {
		t.Fatal("merging wrong kind should fail")
	}
}

func TestHLLPrecisionClamped(t *testing.T) {
	if p := NewHLL(0).Precision(); p != hllMinPrecision {
		t.Fatalf("precision 0 clamped to %d, want %d", p, hllMinPrecision)
	}
	if p := NewHLL(99).Precision(); p != hllMaxPrecision {
		t.Fatalf("precision 99 clamped to %d, want %d", p, hllMaxPrecision)
	}
}

// --- SpaceSaving ---

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s := NewSpaceSaving(16)
	freq := map[int64]int64{1: 100, 2: 50, 3: 25, 4: 12}
	pos := int64(0)
	for v, n := range freq {
		for i := int64(0); i < n; i++ {
			s.Push(pos, v)
			pos++
		}
	}
	for v, want := range freq {
		hh, ok := tracked(s, v)
		if !ok || hh.Count != want || hh.Err != 0 {
			t.Fatalf("value %d: got (%+v, %v), want exact count %d", v, hh, ok, want)
		}
	}
	top := s.Top(2)
	if len(top) != 2 || top[0].Value != 1 || top[1].Value != 2 {
		t.Fatalf("Top(2) = %+v", top)
	}
}

func TestSpaceSavingTiesAtCapacity(t *testing.T) {
	// Fill k=3 counters with one occurrence each — a three-way tie — then
	// push a newcomer. The eviction must be deterministic: ties break toward
	// the LARGEST tracked value.
	s := NewSpaceSaving(3)
	s.Push(0, 10)
	s.Push(1, 20)
	s.Push(2, 30)
	s.Push(3, 40) // evicts 30 (largest value among count-1 ties)

	if _, ok := tracked(s, 30); ok {
		t.Fatal("value 30 should have been evicted (largest of the tied minimums)")
	}
	for _, v := range []int64{10, 20} {
		if _, ok := tracked(s, v); !ok {
			t.Fatalf("value %d unexpectedly evicted", v)
		}
	}
	hh, ok := tracked(s, 40)
	if !ok || hh.Count != 2 || hh.Err != 1 {
		t.Fatalf("newcomer bounds = %+v, want count 2 err 1", hh)
	}

	// Determinism: the same stream always evicts the same victim.
	for trial := 0; trial < 10; trial++ {
		s2 := NewSpaceSaving(3)
		s2.Push(0, 10)
		s2.Push(1, 20)
		s2.Push(2, 30)
		s2.Push(3, 40)
		b1, _ := s.MarshalBinary()
		b2, _ := s2.MarshalBinary()
		if !bytes.Equal(b1, b2) {
			t.Fatal("tie eviction is not deterministic")
		}
	}
}

func TestSpaceSavingGuaranteeBounds(t *testing.T) {
	// Zipf-ish stream with many more distinct values than counters: the
	// invariant f(v) ≤ Count ≤ f(v) + Err must hold for every tracked value.
	s := NewSpaceSaving(8)
	truth := map[int64]int64{}
	rng := rand.New(rand.NewSource(7))
	var pos int64
	for i := 0; i < 50_000; i++ {
		// Skewed: value j with probability ~ 1/(j+1).
		v := int64(rng.Intn(rng.Intn(100) + 1))
		truth[v]++
		s.Push(pos, v)
		pos++
	}
	for _, hh := range s.Top(0) {
		f := truth[hh.Value]
		if hh.Count < f {
			t.Errorf("value %d: count %d underestimates true %d", hh.Value, hh.Count, f)
		}
		if hh.Count-hh.Err > f {
			t.Errorf("value %d: lower bound %d exceeds true %d", hh.Value, hh.Count-hh.Err, f)
		}
	}
	// Any value with f > N/k is guaranteed tracked.
	threshold := s.Items() / int64(s.Capacity())
	for v, f := range truth {
		if f > threshold {
			if _, ok := tracked(s, v); !ok {
				t.Errorf("heavy value %d (f=%d > N/k=%d) untracked", v, f, threshold)
			}
		}
	}
}

func TestSpaceSavingMergePreservesGuarantee(t *testing.T) {
	truth := map[int64]int64{}
	shards := make([]*SpaceSaving, 4)
	for i := range shards {
		shards[i] = NewSpaceSaving(8)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40_000; i++ {
		v := int64(rng.Intn(rng.Intn(80) + 1))
		truth[v]++
		shards[i%4].Push(int64(i), v)
	}
	merged := shards[0]
	for _, sh := range shards[1:] {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Items() != 40_000 {
		t.Fatalf("merged items = %d", merged.Items())
	}
	if len(merged.entries) > merged.k {
		t.Fatalf("merge left %d counters, capacity %d", len(merged.entries), merged.k)
	}
	for _, hh := range merged.Top(0) {
		f := truth[hh.Value]
		if hh.Count < f || hh.Count-hh.Err > f {
			t.Errorf("after merge, value %d: bounds [%d, %d] miss true %d",
				hh.Value, hh.Count-hh.Err, hh.Count, f)
		}
	}
}

func TestSpaceSavingMergeIdenticalWhenUnderCapacity(t *testing.T) {
	serial := NewSpaceSaving(64)
	a := NewSpaceSaving(64)
	b := NewSpaceSaving(64)
	for i := 0; i < 10_000; i++ {
		v := int64(i % 40) // 40 distinct < 64 capacity
		serial.Push(int64(i), v)
		if i%2 == 0 {
			a.Push(int64(i), v)
		} else {
			b.Push(int64(i), v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want, _ := serial.MarshalBinary()
	got, _ := a.MarshalBinary()
	if !bytes.Equal(want, got) {
		t.Fatal("under-capacity merge not byte-identical to serial")
	}
}

// --- Window ---

func TestWindowZeroWidth(t *testing.T) {
	w := NewWindow(0)
	for i := 0; i < 100; i++ {
		w.Push(int64(i), int64(i))
	}
	if agg := w.Aggregate(); agg.Count != 0 {
		t.Fatalf("W=0 window aggregated %d values", agg.Count)
	}
	if w.Items() != 100 {
		t.Fatalf("W=0 window items = %d, want 100 (it still consumed the stream)", w.Items())
	}
}

func TestWindowWidthOne(t *testing.T) {
	w := NewWindow(1)
	w.Push(0, 7)
	w.Push(1, -3)
	w.Push(2, 99)
	agg := w.Aggregate()
	if agg.Count != 1 || agg.Sum != 99 || agg.Min != 99 || agg.Max != 99 {
		t.Fatalf("W=1 aggregate = %+v, want the single last value 99", agg)
	}
	// Out-of-order positions: the LAST stream position wins, not arrival.
	w2 := NewWindow(1)
	w2.Push(5, 50)
	w2.Push(2, 20) // earlier position, must not displace pos 5
	if agg := w2.Aggregate(); agg.Sum != 50 {
		t.Fatalf("W=1 out-of-order aggregate = %+v, want value at pos 5", agg)
	}
}

func TestWindowWiderThanStream(t *testing.T) {
	w := NewWindow(1000)
	var sum int64
	for i := 0; i < 10; i++ {
		w.Push(int64(i), int64(i*i))
		sum += int64(i * i)
	}
	agg := w.Aggregate()
	if agg.Count != 10 || agg.Sum != sum || agg.Min != 0 || agg.Max != 81 {
		t.Fatalf("wide window aggregate = %+v", agg)
	}
}

func TestWindowSlides(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 10; i++ {
		w.Push(int64(i), int64(i))
	}
	agg := w.Aggregate()
	if agg.Count != 3 || agg.Sum != 7+8+9 || agg.Min != 7 || agg.Max != 9 {
		t.Fatalf("sliding aggregate = %+v, want last three {7,8,9}", agg)
	}
}

func TestWindowMergeEqualsSerial(t *testing.T) {
	// Shard a stream across lanes in round-robin (worst case for ordering)
	// and check the merged window is byte-identical to the serial one.
	const n, wWidth, lanes = 5000, 128, 7
	serial := NewWindow(wWidth)
	shards := make([]*Window, lanes)
	for i := range shards {
		shards[i] = NewWindow(wWidth)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		v := rng.Int63n(1 << 40)
		serial.Push(int64(i), v)
		shards[i%lanes].Push(int64(i), v)
	}
	merged := shards[0]
	for _, sh := range shards[1:] {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := serial.MarshalBinary()
	got, _ := merged.MarshalBinary()
	if !bytes.Equal(want, got) {
		t.Fatal("merged window not byte-identical to serial")
	}
}

// --- Chain ---

func TestNilChainIsSafe(t *testing.T) {
	var c *Chain
	c.SetPos(10)
	c.Push(1)
	c.PushAll([]int64{1, 2, 3})
	c.SetFaults(nil)
	c.Charge(nil, "lane")
	c.MarkDegraded()
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if c.TotalCycles() != 0 || c.Blocks() != nil {
		t.Fatal("nil chain leaked state")
	}
}

func TestNewChainDisabledSpecIsNil(t *testing.T) {
	if NewChain(ChainSpec{}) != nil {
		t.Fatal("zero spec should produce a nil chain")
	}
	if !DefaultChainSpec().Enabled() {
		t.Fatal("default spec should be enabled")
	}
	if c := NewChain(DefaultChainSpec()); c == nil || len(c.Blocks()) != 3 {
		t.Fatal("default chain should carry three blocks")
	}
}

func TestChainCycleAccounting(t *testing.T) {
	c := NewChain(ChainSpec{NDVPrecision: 8, HeavyK: 4, WindowW: 16})
	c.PushAll([]int64{1, 2, 3, 4, 5})
	want := int64(5) * (DefaultHLLCyclesPerValue + DefaultHeavyCyclesPerValue + DefaultWindowCyclesPerValue)
	if got := c.TotalCycles(); got != want {
		t.Fatalf("TotalCycles = %d, want %d", got, want)
	}

	prof := hwprof.New()
	c.Charge(prof, "merged")
	if got := prof.TotalCycles(); got != want {
		t.Fatalf("profiled cycles = %d, want %d", got, want)
	}
	// Charge is flush-once: a second call must not double the profile.
	c.Charge(prof, "merged")
	if got := prof.TotalCycles(); got != want {
		t.Fatalf("double Charge inflated profile to %d", got)
	}
}

func TestChainMergeEqualsSerialAcrossPositions(t *testing.T) {
	// Two lanes fed disjoint page ranges via SetPos must merge to the serial
	// chain over the concatenated stream.
	spec := ChainSpec{NDVPrecision: 10, HeavyK: 32, WindowW: 64}
	serial := NewChain(spec)
	laneA := NewChain(spec)
	laneB := NewChain(spec)

	rng := rand.New(rand.NewSource(17))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(25) // few distinct → SpaceSaving exact too
	}
	serial.PushAll(vals)

	// Lane B gets the SECOND half first (out-of-order delivery).
	laneB.SetPos(1000)
	laneB.PushAll(vals[1000:])
	laneA.SetPos(0)
	laneA.PushAll(vals[:1000])
	if err := laneA.Merge(laneB); err != nil {
		t.Fatal(err)
	}

	sb := serial.Blocks()
	mb := laneA.Blocks()
	for i := range sb {
		want, _ := sb[i].MarshalBinary()
		got, _ := mb[i].MarshalBinary()
		if !bytes.Equal(want, got) {
			t.Errorf("block %s: merged ≠ serial", sb[i].Name())
		}
	}
}

func TestChainMergeMismatchedSpecs(t *testing.T) {
	a := NewChain(ChainSpec{NDVPrecision: 10})
	b := NewChain(ChainSpec{NDVPrecision: 10, HeavyK: 4})
	if err := a.Merge(b); err == nil {
		t.Fatal("merging chains of different shapes should fail")
	}
}

func TestChainFaultPoints(t *testing.T) {
	// A chain wired to an injector firing sketch faults at every page
	// boundary must mark blocks degraded / retire them — and a retired block
	// stops consuming — without ever touching the others' correctness.
	inj := faults.New(1, faults.Profile{
		faults.SketchCorrupt: 1.0,
		faults.SketchRetire:  1.0,
	})
	c := NewChain(DefaultChainSpec())
	c.SetFaults(inj)
	c.SetPos(0) // boundary: both fault points fire
	c.PushAll([]int64{1, 2, 3})

	if retiredBlocks(c) == 0 {
		t.Fatal("retire fault at rate 1.0 retired nothing")
	}
	degraded := 0
	for _, b := range c.Blocks() {
		if b.Degraded() {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("corrupt fault at rate 1.0 degraded nothing")
	}
	// Retired blocks consumed nothing; live blocks consumed everything.
	for _, b := range c.Blocks() {
		if b.Items() != 0 && b.Items() != 3 {
			t.Fatalf("block %s consumed %d of 3 values", b.Name(), b.Items())
		}
	}
}

func TestChainMergeOfRetiredLanePartials(t *testing.T) {
	// Lane B's blocks all retire mid-stream (partial state); merging the
	// partial into lane A must keep A's data, flag degradation, and never
	// crash — the fail-open posture.
	spec := ChainSpec{NDVPrecision: 10, HeavyK: 8, WindowW: 32}
	laneA := NewChain(spec)
	laneB := NewChain(spec)

	laneA.SetPos(0)
	for i := 0; i < 500; i++ {
		laneA.Push(int64(i % 13))
	}
	laneB.SetPos(500)
	for i := 0; i < 250; i++ {
		laneB.Push(int64(i % 13))
	}
	// Retire blocks in lane B halfway: each page boundary retires one
	// randomly chosen block with certainty (which block is up to the
	// injector's stream, and repeats can hit the same slot).
	inj := faults.New(1, faults.Profile{faults.SketchRetire: 1.0})
	laneB.SetFaults(inj)
	for i := 0; i < 4; i++ {
		laneB.SetPos(750)
	}
	if retiredBlocks(laneB) == 0 {
		t.Fatal("retire at rate 1.0 left every block attached")
	}
	retired := make([]bool, len(laneB.Blocks()))
	for i, b := range laneB.Blocks() {
		retired[i] = b.Degraded() // only retirement degrades here
	}
	for i := 0; i < 250; i++ {
		laneB.Push(0) // retired blocks must ignore this
	}

	if err := laneA.Merge(laneB); err != nil {
		t.Fatal(err)
	}
	for i, b := range laneA.Blocks() {
		if retired[i] {
			if !b.Degraded() {
				t.Errorf("block %s lost the degraded flag through merge", b.Name())
			}
			if b.Items() != 750 {
				t.Errorf("retired block %s items = %d, want 750 (500 + 250 pre-retirement)", b.Name(), b.Items())
			}
		} else {
			if b.Items() != 1000 {
				t.Errorf("live block %s items = %d, want 1000", b.Name(), b.Items())
			}
		}
	}
}

func TestBlocksAccessors(t *testing.T) {
	c := NewChain(DefaultChainSpec())
	bs := c.Blocks()
	if bs.HLL() == nil || bs.Heavy() == nil || bs.Window() == nil {
		t.Fatal("default chain missing a block")
	}
	if _, ok := bs.NDVEstimate(); !ok {
		t.Fatal("NDVEstimate not available with an HLL present")
	}
	var empty Blocks
	if empty.HLL() != nil || empty.Heavy() != nil || empty.Window() != nil {
		t.Fatal("empty Blocks returned a block")
	}
	if _, ok := empty.NDVEstimate(); ok {
		t.Fatal("empty Blocks claimed an NDV estimate")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindHLL: "hll", KindSpaceSaving: "spacesaving", KindWindow: "window", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}
