// Package sketch generalises the side path into the paper's daisy chain of
// pluggable statistic blocks: small bounded-state summaries that consume the
// raw value stream as it moves, are cycle-accounted like every other module
// of the simulated accelerator, merge across parallel lanes the way
// core.Binner partial states do, and serialise with a versioned encoding for
// the catalog and the wire.
//
// Where core.Block runs over the *binned* view after the stream has passed,
// a StatBlock here can see every raw value in stream order. The
// sliding-window aggregate has to: it is a function of position. The
// HyperLogLog distinct counter and the SpaceSaving heavy-hitter summary are
// functions of the multiset of values, so they stream only when no lossless
// bin region holds that multiset already — otherwise they are completed from
// the bins at fan-in, to the same bytes (HLL) or to exact counts
// (SpaceSaving); see fold.go.
//
// Every Push carries the value's global stream position (its row ordinal in
// storage order). Positions are what make the parallel path's merge exact:
// pages are distributed across lanes out of order, but a position-tagged
// window can still reconstruct "the last W values of the stream", and the
// other blocks are order-insensitive by construction. Relation pages are
// fully packed (page.Encode), so the position of row k of page p is
// p·capacity + k, which each lane computes locally via SetPos.
//
// A nil *Chain is the disabled configuration and is safe to use everywhere:
// every method degrades to a pointer test, the same "nil IS the no-op
// baseline" discipline as internal/obs and internal/faults.
package sketch

import (
	"fmt"

	"streamhist/internal/faults"
	"streamhist/internal/hwprof"
)

// Kind identifies a StatBlock implementation, both in code and on the wire.
type Kind uint8

// The defined block kinds. Wire encodings carry these values, so they are
// append-only.
const (
	// KindHLL is the HyperLogLog distinct-count sketch.
	KindHLL Kind = 1
	// KindSpaceSaving is the SpaceSaving heavy-hitter summary.
	KindSpaceSaving Kind = 2
	// KindWindow is the bounded-state sliding-window aggregate.
	KindWindow Kind = 3
)

// String names the kind the way the CLIs render it.
func (k Kind) String() string {
	switch k {
	case KindHLL:
		return "hll"
	case KindSpaceSaving:
		return "spacesaving"
	case KindWindow:
		return "window"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// StatBlock is one statistic block of the daisy chain. Implementations hold
// bounded state, accept the raw stream via Push, and must be mergeable: for
// HLL and the window the merged result is *identical* to the serial result
// whatever the lane sharding; so it is for a SpaceSaving block folded from
// the bins, which is exact. A SpaceSaving block that streamed is identical
// when capacity covers the distinct count, and keeps the ε = N/k error
// guarantee under merge otherwise (an order-sensitive summary cannot do
// better; see DESIGN.md).
type StatBlock interface {
	// Kind identifies the implementation.
	Kind() Kind
	// Name is the block's chain name (stable, used for hwprof nodes and
	// metric labels).
	Name() string
	// Push consumes one value at global stream position pos.
	Push(pos, v int64)
	// PushBatch consumes len(vals) values at consecutive stream positions
	// pos, pos+1, …; it is the hot-path form (one devirtualised call per
	// page chunk instead of an interface dispatch per value).
	PushBatch(pos int64, vals []int64)
	// Merge folds another block of the same kind into this one. The other
	// block must not be pushed to afterwards.
	Merge(other StatBlock) error
	// Items is how many values this block consumed (merged lanes included).
	Items() int64
	// Degraded reports that the block's state is suspect: a fault corrupted
	// or retired it mid-stream. A degraded sketch is still served — with the
	// flag, never silently.
	Degraded() bool
	// MarkDegraded sets the degraded flag (fault path; sticky).
	MarkDegraded()
	// MarshalBinary encodes the block with the versioned layout of
	// serialize.go. Encodings of equal state are byte-identical — merged
	// lanes can be compared against a serial run bytewise.
	MarshalBinary() ([]byte, error)
}

// blockBase carries the accounting every block shares.
type blockBase struct {
	items    int64
	degraded bool
}

func (b *blockBase) Items() int64   { return b.items }
func (b *blockBase) Degraded() bool { return b.degraded }
func (b *blockBase) MarkDegraded()  { b.degraded = true }

// absorb folds another base in: consumed counts add, degradation is sticky.
func (b *blockBase) absorb(o *blockBase) {
	b.items += o.items
	b.degraded = b.degraded || o.degraded
}

// Per-value processing costs of the blocks, in simulated cycles. Like the
// Table 2 chain constants these are model parameters, not measurements: the
// blocks are pipelined beside the Binner, so their cost is a per-value rate
// charged to their own hwprof reason, never a stall of the host stream.
const (
	DefaultHLLCyclesPerValue    = 2
	DefaultHeavyCyclesPerValue  = 4
	DefaultWindowCyclesPerValue = 3
)

// ChainSpec configures a chain. The zero value disables everything (and
// NewChain returns nil — the zero-cost baseline).
type ChainSpec struct {
	// NDVPrecision enables the HyperLogLog block with 2^p registers,
	// 4 ≤ p ≤ 16. 0 disables the block.
	NDVPrecision int
	// HeavyK enables the SpaceSaving block with k counters. 0 disables.
	HeavyK int
	// WindowW enables the sliding-window aggregate over the last W stream
	// values. 0 disables.
	WindowW int
}

// DefaultChainSpec is the serving default: NDV, heavy hitters, and a
// 1024-value window refreshed by every scan.
func DefaultChainSpec() ChainSpec {
	return ChainSpec{NDVPrecision: 12, HeavyK: 16, WindowW: 1024}
}

// Enabled reports whether the spec asks for at least one block.
func (s ChainSpec) Enabled() bool {
	return s.NDVPrecision > 0 || s.HeavyK > 0 || s.WindowW > 0
}

// chainSlot is one block riding the chain plus its lane-local feed state.
type chainSlot struct {
	block StatBlock
	cpv   int64
	// retired: an injected fault detached the block from the stream; it
	// stops consuming (and stops accruing cycles) but is still merged and
	// served, marked Degraded.
	retired bool
}

// Chain is a daisy chain of statistic blocks fed by one lane of the side
// path. It tracks the global stream position, applies the sketch fault
// points at page boundaries, accounts cycles per block, and merges with the
// chains of other lanes at fan-in. All methods are nil-receiver safe.
type Chain struct {
	slots []chainSlot
	pos   int64
	inj   *faults.Injector

	// deferred: HLL and SpaceSaving only book what is pushed and wait for a
	// fold over the bin region to give them the values (fold.go). distinct:
	// the HLL half of that fold has run and nothing was pushed since.
	deferred bool
	distinct bool

	flushed bool
}

// NewChain builds a chain from the spec, or returns nil when the spec
// disables every block — the nil chain is the no-op baseline.
func NewChain(spec ChainSpec) *Chain {
	if !spec.Enabled() {
		return nil
	}
	c := &Chain{}
	if spec.NDVPrecision > 0 {
		c.slots = append(c.slots, chainSlot{
			block: pooledHLL(spec.NDVPrecision),
			cpv:   DefaultHLLCyclesPerValue,
		})
	}
	if spec.HeavyK > 0 {
		c.slots = append(c.slots, chainSlot{
			block: pooledSpaceSaving(spec.HeavyK),
			cpv:   DefaultHeavyCyclesPerValue,
		})
	}
	if spec.WindowW > 0 {
		c.slots = append(c.slots, chainSlot{
			block: pooledWindow(spec.WindowW),
			cpv:   DefaultWindowCyclesPerValue,
		})
	}
	return c
}

// SetFaults wires the sketch injection points (faults.SketchCorrupt,
// faults.SketchRetire) into this chain. They are evaluated at SetPos —
// page boundaries — never per value. A corrupted or retired block is defined
// by where in the stream it stopped, so a chain with an injector streams; wire
// it before the chain is handed to a Binner, which is when deferral is decided.
func (c *Chain) SetFaults(inj *faults.Injector) {
	if c != nil {
		c.inj = inj
		c.deferred = c.deferred && inj == nil
	}
}

// SetPos repositions the stream cursor (the feeding path calls this with
// pageIndex·pageCapacity at each page boundary) and gives the fault points
// one shot at the chain. A corrupted block keeps consuming but is marked
// Degraded; a retired block detaches from the stream entirely — in both
// cases the histogram path is untouched (fail open, sketch-only blast
// radius).
func (c *Chain) SetPos(pos int64) {
	if c == nil {
		return
	}
	c.pos = pos
	if c.inj == nil {
		return
	}
	if c.inj.Should(faults.SketchCorrupt) {
		i := int(c.inj.Intn(faults.SketchCorrupt, int64(len(c.slots))))
		c.slots[i].block.MarkDegraded()
	}
	if c.inj.Should(faults.SketchRetire) {
		i := int(c.inj.Intn(faults.SketchRetire, int64(len(c.slots))))
		c.slots[i].retired = true
		c.slots[i].block.MarkDegraded()
	}
}

// Push feeds one raw value to every live block and advances the cursor.
func (c *Chain) Push(v int64) {
	if c == nil {
		return
	}
	c.distinct = false
	for i := range c.slots {
		s := &c.slots[i]
		if s.retired || (c.deferred && book(s.block, 1)) {
			continue
		}
		s.block.Push(c.pos, v)
	}
	c.pos++
}

// PushAll feeds a batch of values at consecutive stream positions,
// block-major: each live block consumes the whole batch in one call instead
// of paying a slot walk and an interface dispatch per value.
func (c *Chain) PushAll(vals []int64) {
	if c == nil || len(vals) == 0 {
		return
	}
	c.distinct = false
	for i := range c.slots {
		s := &c.slots[i]
		if s.retired || (c.deferred && book(s.block, int64(len(vals)))) {
			continue
		}
		s.block.PushBatch(c.pos, vals)
	}
	c.pos += int64(len(vals))
}

// Release returns every block's state to the package pools for a future
// chain to reuse (pool.go). The chain must not be used afterwards, and
// Release must never be called on a chain whose Blocks() escaped — catalog
// entries and scan results keep the blocks alive.
func (c *Chain) Release() {
	if c == nil {
		return
	}
	for i := range c.slots {
		releaseBlock(c.slots[i].block)
		c.slots[i] = chainSlot{}
	}
	c.slots = nil
}

// Merge folds another lane's chain into this one, blockwise. Both chains
// must come from the same spec. The other chain must not be fed afterwards.
func (c *Chain) Merge(other *Chain) error {
	if c == nil || other == nil {
		return nil
	}
	if len(c.slots) != len(other.slots) {
		return fmt.Errorf("sketch: merging chains with %d and %d blocks", len(c.slots), len(other.slots))
	}
	if c.deferred != other.deferred {
		// One fold over the merged bins would count the streamed side twice.
		return fmt.Errorf("sketch: merging a deferred chain with a streamed one; Fold it first")
	}
	for i := range c.slots {
		if err := c.slots[i].block.Merge(other.slots[i].block); err != nil {
			return err
		}
	}
	// What the other chain still owed a fold, this one now owes.
	c.distinct = c.distinct && other.distinct
	other.deferred = false
	return nil
}

// TotalCycles is the chain's simulated processing cost: Σ items·cpv per
// block. The products are integer, so profile attribution is exact by
// construction — no rounding residue to force anywhere.
func (c *Chain) TotalCycles() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.slots {
		total += c.slots[i].block.Items() * c.slots[i].cpv
	}
	return total
}

// Charge publishes the chain's cycle attribution to the profiler under the
// given lane frame, one node per block with the sketch reason, exactly once
// (Finish paths can run more than once; merged chains were already folded
// into this one's items). The node values sum exactly to TotalCycles.
func (c *Chain) Charge(p *hwprof.Profiler, lane string) {
	if c == nil || p == nil || c.flushed {
		return
	}
	c.flushed = true
	for i := range c.slots {
		b := c.slots[i].block
		n := p.Node(lane, "sketch", b.Name(), hwprof.ReasonSketch)
		n.Add(b.Items() * c.slots[i].cpv)
		n.AddEvents(b.Items())
	}
}

// MarkDegraded flags every block (e.g. when the surrounding scan's side
// path is known incomplete — quarantined pages, lost frames).
func (c *Chain) MarkDegraded() {
	if c == nil {
		return
	}
	for i := range c.slots {
		c.slots[i].block.MarkDegraded()
	}
}

// Blocks returns the chain's blocks in chain order.
func (c *Chain) Blocks() Blocks {
	if c == nil {
		return nil
	}
	out := make(Blocks, len(c.slots))
	for i := range c.slots {
		out[i] = c.slots[i].block
	}
	return out
}

// Blocks is a set of statistic blocks (a chain's output, a catalog entry's
// sketches, a STATS response) with typed accessors.
type Blocks []StatBlock

// HLL returns the first HyperLogLog block, or nil.
func (bs Blocks) HLL() *HLL {
	for _, b := range bs {
		if h, ok := b.(*HLL); ok {
			return h
		}
	}
	return nil
}

// Heavy returns the first SpaceSaving block, or nil.
func (bs Blocks) Heavy() *SpaceSaving {
	for _, b := range bs {
		if s, ok := b.(*SpaceSaving); ok {
			return s
		}
	}
	return nil
}

// Window returns the first sliding-window block, or nil.
func (bs Blocks) Window() *Window {
	for _, b := range bs {
		if w, ok := b.(*Window); ok {
			return w
		}
	}
	return nil
}

// NDVEstimate returns the HLL distinct-count estimate when an HLL block is
// present and healthy enough to trust its items (a degraded block still
// reports, the caller decides).
func (bs Blocks) NDVEstimate() (float64, bool) {
	h := bs.HLL()
	if h == nil {
		return 0, false
	}
	return h.Estimate(), true
}
