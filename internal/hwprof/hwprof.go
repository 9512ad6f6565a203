// Package hwprof is a cycle-attribution profiler for the simulated
// accelerator: every clocked module of the hardware model (the binning
// pipeline stages, the ECC-checked bin memory, the BRAM cache, the
// histogram chain, the §7 aggregation fan-in) charges its cycles to a
// profile node tagged with a synthetic "stack" of frames —
//
//	lane → module → stage → reason
//
// where reason ∈ {compute, mem-wait, fifo-full-stall, fifo-empty-stall,
// ecc-correct, spike, aggregation}. The accumulated profile answers the
// question the totals (BinnerStats, AccelCycles) cannot: *where* the
// simulated cycles went.
//
// The design mirrors internal/obs: node registration (get-or-create under a
// mutex) happens at wiring or flush time, updates are single atomic adds,
// and a nil *Profiler or nil *Node is a valid no-op — the nil-profiler path
// is the zero-cost baseline the overhead benchmark compares against.
//
// Snapshots serialize to the pprof protobuf wire format (see pprof.go), so
// `go tool pprof` and standard flamegraph tooling work on simulated cycles
// out of the box, and to JSON through their struct tags, the form the
// built-in flat and tree renderers (see text.go) are fed over the wire.
package hwprof

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Reason frame values. The reason is always the leaf of a node's stack.
const (
	ReasonCompute   = "compute"
	ReasonMemWait   = "mem-wait"
	ReasonFIFOFull  = "fifo-full-stall"
	ReasonFIFOEmpty = "fifo-empty-stall"
	ReasonECC       = "ecc-correct"
	ReasonSpike     = "spike"
	ReasonAgg       = "aggregation"
	ReasonSketch    = "sketch"
)

// frameSep joins stack frames into map keys; frame names must not contain
// it. The text renderers print stacks with it too.
const frameSep = ";"

// Node is one attribution bucket: a fixed stack of frames plus two
// lock-free accumulators. Cycles are simulated hardware cycles; events
// count occurrences for happenings whose cost is already attributed
// elsewhere or is zero (cache hits, ECC corrections, spike firings). A nil
// *Node is a valid no-op, so call sites never guard.
type Node struct {
	frames []string
	cycles atomic.Int64
	events atomic.Int64
}

// Add charges n simulated cycles to the node. Non-positive deltas are
// ignored — attribution only accumulates.
func (n *Node) Add(cycles int64) {
	if n == nil || cycles <= 0 {
		return
	}
	n.cycles.Add(cycles)
}

// AddEvents records k occurrences of the node's happening without charging
// cycles.
func (n *Node) AddEvents(k int64) {
	if n == nil || k <= 0 {
		return
	}
	n.events.Add(k)
}

// Cycles returns the node's accumulated simulated cycles.
func (n *Node) Cycles() int64 {
	if n == nil {
		return 0
	}
	return n.cycles.Load()
}

// Events returns the node's accumulated event count.
func (n *Node) Events() int64 {
	if n == nil {
		return 0
	}
	return n.events.Load()
}

// Profiler hands out attribution nodes and snapshots the accumulated
// profile. The zero value is not usable; call New. A nil *Profiler is a
// valid no-op everywhere (Node returns nil, Snapshot returns an empty
// profile), which is how the unprofiled hot path stays free.
type Profiler struct {
	mu      sync.Mutex
	byKey   map[string]*Node
	ordered []*Node
	start   time.Time
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{byKey: make(map[string]*Node), start: time.Now()}
}

// Node get-or-creates the attribution bucket for the given stack, outermost
// frame first (lane, module, stage, reason). Registration takes a lock and
// is meant for wiring/flush time, not the per-item hot path; the returned
// node is updated lock-free.
func (p *Profiler) Node(frames ...string) *Node {
	if p == nil || len(frames) == 0 {
		return nil
	}
	key := strings.Join(frames, frameSep)
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.byKey[key]; ok {
		return n
	}
	n := &Node{frames: append([]string(nil), frames...)}
	p.byKey[key] = n
	p.ordered = append(p.ordered, n)
	return n
}

// TotalCycles returns the live sum of cycles over every node — the number
// the hwprof_consistency gauge compares against the scan arithmetic.
func (p *Profiler) TotalCycles() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	nodes := append([]*Node(nil), p.ordered...)
	p.mu.Unlock()
	var total int64
	for _, n := range nodes {
		total += n.Cycles()
	}
	return total
}

// Sample is one stack's accumulated values in a snapshot.
type Sample struct {
	// Stack is outermost-first: lane, module, stage, reason.
	Stack  []string `json:"stack"`
	Cycles int64    `json:"cycles"`
	Events int64    `json:"events"`
}

// Profile is an immutable snapshot of a profiler (or the difference of
// two). Samples are sorted by descending cycles, ties by stack.
type Profile struct {
	// TimeNanos is when the observation window started (unix nanos);
	// DurationNanos is its length.
	TimeNanos     int64    `json:"time_nanos"`
	DurationNanos int64    `json:"duration_nanos"`
	Samples       []Sample `json:"samples"`
}

// Snapshot captures the current accumulation. Nil profilers yield an empty
// (but non-nil) profile.
func (p *Profiler) Snapshot() *Profile {
	if p == nil {
		return &Profile{}
	}
	p.mu.Lock()
	nodes := append([]*Node(nil), p.ordered...)
	start := p.start
	p.mu.Unlock()
	now := time.Now()
	prof := &Profile{
		TimeNanos:     start.UnixNano(),
		DurationNanos: now.Sub(start).Nanoseconds(),
	}
	for _, n := range nodes {
		c, e := n.Cycles(), n.Events()
		if c == 0 && e == 0 {
			continue
		}
		prof.Samples = append(prof.Samples, Sample{
			Stack:  append([]string(nil), n.frames...),
			Cycles: c,
			Events: e,
		})
	}
	prof.sort()
	return prof
}

func (p *Profile) sort() {
	sort.SliceStable(p.Samples, func(i, j int) bool {
		if p.Samples[i].Cycles != p.Samples[j].Cycles {
			return p.Samples[i].Cycles > p.Samples[j].Cycles
		}
		return strings.Join(p.Samples[i].Stack, frameSep) < strings.Join(p.Samples[j].Stack, frameSep)
	})
}

// Sub returns the delta profile p − prev: what accumulated between two
// snapshots of the same profiler. Samples whose values did not move are
// dropped. prev may be nil (Sub is then a copy of p).
func (p *Profile) Sub(prev *Profile) *Profile {
	out := &Profile{TimeNanos: p.TimeNanos, DurationNanos: p.DurationNanos}
	var before map[string]Sample
	if prev != nil {
		before = make(map[string]Sample, len(prev.Samples))
		for _, s := range prev.Samples {
			before[strings.Join(s.Stack, frameSep)] = s
		}
		out.TimeNanos = prev.TimeNanos + prev.DurationNanos
		out.DurationNanos = p.TimeNanos + p.DurationNanos - out.TimeNanos
	}
	for _, s := range p.Samples {
		b := before[strings.Join(s.Stack, frameSep)]
		d := Sample{Stack: s.Stack, Cycles: s.Cycles - b.Cycles, Events: s.Events - b.Events}
		if d.Cycles == 0 && d.Events == 0 {
			continue
		}
		out.Samples = append(out.Samples, d)
	}
	out.sort()
	return out
}

// TotalCycles sums the snapshot's cycle values.
func (p *Profile) TotalCycles() int64 {
	if p == nil {
		return 0
	}
	var total int64
	for _, s := range p.Samples {
		total += s.Cycles
	}
	return total
}

// SubtreeCycles sums cycles over every sample whose stack starts with the
// given frame prefix — e.g. SubtreeCycles("lane0") is lane 0's total, and
// SubtreeCycles("lane0", "binner") that lane's binning pipeline alone.
func (p *Profile) SubtreeCycles(prefix ...string) int64 {
	if p == nil {
		return 0
	}
	var total int64
	for _, s := range p.Samples {
		if hasPrefix(s.Stack, prefix) {
			total += s.Cycles
		}
	}
	return total
}

// Lanes returns the distinct outermost frames in the snapshot, sorted.
func (p *Profile) Lanes() []string {
	if p == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, s := range p.Samples {
		if len(s.Stack) > 0 && !seen[s.Stack[0]] {
			seen[s.Stack[0]] = true
			out = append(out, s.Stack[0])
		}
	}
	sort.Strings(out)
	return out
}

func hasPrefix(stack, prefix []string) bool {
	if len(prefix) > len(stack) {
		return false
	}
	for i, f := range prefix {
		if stack[i] != f {
			return false
		}
	}
	return true
}
