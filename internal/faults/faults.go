// Package faults is the deterministic fault-injection framework of the
// chaos-testing story: named injection points wired through every layer of
// the data path (simulated accelerator memory, page images, shard lanes,
// network connections, the drain pool), driven by a seeded per-point random
// stream so that a failing run is reproducible from its seed alone.
//
// The production code never imports a testing package to use this: every
// hook is a nil-safe method on *Injector, so the zero configuration (a nil
// injector) compiles to a pointer check and the fault machinery costs
// nothing when chaos is off.
//
// The posture this package exists to verify is the paper's: the cut-through
// data path is fail-open by construction, so any injected fault may degrade
// the statistics side effect — observable through quarantine counters and
// the histogram's Degraded marking — but must never corrupt or stall the
// raw page stream the host receives.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Point names one injection site. The convention is layer.site.effect so a
// profile reads like a fault model.
type Point string

// The injection points wired through the repository.
const (
	// MemReadFlip flips one bit on the read path of the simulated bin
	// memory (a transient upset; ECC corrects it).
	MemReadFlip Point = "hw.mem.read-flip"
	// MemWriteFlip flips bits in a stored bin word after a write commits
	// (a persistent upset; single flips correct, double flips quarantine
	// the bin).
	MemWriteFlip Point = "hw.mem.write-flip"
	// MemLatencySpike stretches one memory access by an extra latency.
	MemLatencySpike Point = "hw.mem.latency-spike"

	// PageCorrupt flips bytes in a page image on the storage read path.
	PageCorrupt Point = "page.corrupt"
	// PageTruncate cuts what the side path receives of a unit short of a
	// page boundary (a slipped DMA transfer into the splitter buffer): the
	// pages past the cut never arrive whole.
	PageTruncate Point = "page.truncate"

	// LanePanic makes a shard lane panic mid-chunk.
	LanePanic Point = "lane.panic"
	// LaneStall makes a shard lane stop draining its channel for a while.
	LaneStall Point = "lane.stall"

	// SketchCorrupt marks one statistic block of a sketch chain degraded
	// (a soft upset in a daisy-chained block's state; the block keeps
	// consuming but its answer is advisory).
	SketchCorrupt Point = "sketch.corrupt"
	// SketchRetire detaches one statistic block from the stream entirely;
	// the rest of the chain — and the histogram path — keep running.
	SketchRetire Point = "sketch.retire"

	// ConnReset drops a serving connection mid-scan.
	ConnReset Point = "server.conn.reset"
	// DrainSaturate makes the drain-worker pool report itself full, so a
	// scan streams without a side path.
	DrainSaturate Point = "server.drain.saturate"

	// WALTorn tears one WAL append mid-record — only a prefix of the
	// record reaches the file, as if the process died inside write(2).
	// The durable layer then drops everything behind the tear until a
	// checkpoint re-baselines, mirroring a crashed tail.
	WALTorn Point = "wal.torn"
	// WALFsync makes one WAL fsync barrier silently do nothing (a drive
	// that acknowledged a flush it never performed).
	WALFsync Point = "wal.fsync"
	// SnapCorrupt flips one byte of a checkpoint file on its way to disk,
	// so the checkpoint's read-back rejects it by checksum, deletes it and
	// collects nothing: recovery keeps the previous checkpoint.
	SnapCorrupt Point = "snap.corrupt"
	// DiskSlow stretches one durable-layer disk operation by an injected
	// delay (a saturated device), exercising checkpoint backpressure.
	DiskSlow Point = "disk.slow"
)

// Points lists every defined injection point, in a stable order.
func Points() []Point {
	return []Point{
		MemReadFlip, MemWriteFlip, MemLatencySpike,
		PageCorrupt, PageTruncate,
		LanePanic, LaneStall,
		SketchCorrupt, SketchRetire,
		ConnReset, DrainSaturate,
		WALTorn, WALFsync, SnapCorrupt, DiskSlow,
	}
}

// Profile maps injection points to firing probabilities in [0, 1]. Points
// absent from the profile never fire.
type Profile map[Point]float64

// Clone returns an independent copy of the profile.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// String renders the profile as a stable point=rate list.
func (p Profile) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, p[Point(k)]))
	}
	return strings.Join(parts, ",")
}

// Named chaos profiles. Each one leans on a different failure surface so CI
// can exercise them separately; rates are tuned so a few-hundred-page scan
// sees several faults without drowning.
const (
	ProfileCorruptionHeavy  = "corruption-heavy"
	ProfileLaneFailureHeavy = "lane-failure-heavy"
	ProfileNetworkFlaky     = "network-flaky"
	ProfileDiskFailureHeavy = "disk-failure-heavy"
)

// ProfileNames lists the named profiles in a stable order.
func ProfileNames() []string {
	return []string{ProfileCorruptionHeavy, ProfileLaneFailureHeavy, ProfileNetworkFlaky, ProfileDiskFailureHeavy}
}

// ByName returns a named profile, or an error listing the valid names.
func ByName(name string) (Profile, error) {
	switch name {
	case ProfileCorruptionHeavy:
		return Profile{
			PageCorrupt:     0.10,
			PageTruncate:    0.05,
			MemReadFlip:     0.002,
			MemWriteFlip:    0.002,
			MemLatencySpike: 0.01,
			SketchCorrupt:   0.02,
			SketchRetire:    0.01,
		}, nil
	case ProfileLaneFailureHeavy:
		return Profile{
			LanePanic:       0.08,
			LaneStall:       0.05,
			MemLatencySpike: 0.05,
		}, nil
	case ProfileNetworkFlaky:
		return Profile{
			ConnReset:     0.10,
			DrainSaturate: 0.25,
			PageCorrupt:   0.01,
		}, nil
	case ProfileDiskFailureHeavy:
		return Profile{
			WALTorn:     0.05,
			WALFsync:    0.10,
			SnapCorrupt: 0.10,
			DiskSlow:    0.10,
		}, nil
	default:
		return nil, fmt.Errorf("faults: unknown profile %q (want one of %s)",
			name, strings.Join(ProfileNames(), ", "))
	}
}

// Injector decides, deterministically from a seed, whether each visit to an
// injection point fires. Every point owns an independent splitmix64 stream
// derived from the seed and the point's name, so adding calls at one point
// never perturbs the decisions at another, and a Fork'd child (one per shard
// lane, say) is deterministic regardless of goroutine interleaving between
// siblings.
//
// A nil *Injector is valid everywhere and never fires, so production code
// wires hooks unconditionally.
type Injector struct {
	seed    uint64
	profile Profile

	mu     sync.Mutex
	states map[Point]*pointState

	// agg accumulates hits across this injector and every descendant of the
	// same Fork tree, so a monitoring scrape sees one process-lifetime count
	// per point even though each scan and lane works from its own fork.
	agg *hitTotals
}

// hitTotals is the fork-shared hit aggregate.
type hitTotals struct {
	mu   sync.Mutex
	hits map[Point]int64
}

func (h *hitTotals) add(p Point) {
	h.mu.Lock()
	h.hits[p]++
	h.mu.Unlock()
}

func (h *hitTotals) get(p Point) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hits[p]
}

type pointState struct {
	rng  uint64
	rate float64
}

// New builds an injector for the profile. A nil or empty profile yields an
// injector that never fires.
func New(seed uint64, profile Profile) *Injector {
	return &Injector{
		seed:    seed,
		profile: profile.Clone(),
		states:  make(map[Point]*pointState),
		agg:     &hitTotals{hits: make(map[Point]int64)},
	}
}

// splitmix64 is the standard 64-bit mixer; one step per decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a label into a 64-bit stream selector (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (in *Injector) state(p Point) *pointState {
	st, ok := in.states[p]
	if !ok {
		st = &pointState{
			rng:  splitmix64(in.seed ^ hashString(string(p))),
			rate: in.profile[p],
		}
		in.states[p] = st
	}
	return st
}

// next draws one uniform float64 in [0, 1) from the point's stream.
func (st *pointState) next() float64 {
	st.rng = splitmix64(st.rng)
	return float64(st.rng>>11) / float64(1<<53)
}

// Should reports whether this visit to p fires, consuming one draw from p's
// stream. Safe for concurrent use; nil receivers never fire.
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.state(p)
	if st.rate <= 0 {
		return false
	}
	if st.rate >= 1 || st.next() < st.rate {
		in.agg.add(p)
		return true
	}
	return false
}

// Enabled reports whether p can ever fire — its configured rate is positive
// — without consuming a draw or counting a call. Hot paths use it to skip
// work that only exists to make an armed fault observable (e.g. a scratch
// copy of a frame a corruption point might damage). Nil injectors fire
// nothing.
func (in *Injector) Enabled(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.profile[p] > 0
}

// Intn draws a deterministic value in [0, n) from p's stream, for fault
// parameters (which bit to flip, where to cut a frame). n must be positive.
// A nil injector returns 0.
func (in *Injector) Intn(p Point, n int64) int64 {
	if in == nil || n <= 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.state(p)
	v := st.next() * float64(n)
	if v >= float64(n) { // guard the 1.0-adjacent edge
		v = math.Nextafter(float64(n), 0)
	}
	return int64(v)
}

// Fork derives a child injector whose streams are independent of the
// parent's and of any sibling with a different label. Use one child per
// shard lane (or per scan) so concurrent lanes stay individually
// deterministic. Forking a nil injector yields nil.
func (in *Injector) Fork(label string) *Injector {
	if in == nil {
		return nil
	}
	child := New(splitmix64(in.seed^hashString(label)), in.profile)
	child.agg = in.agg // the whole fork tree shares one hit aggregate
	return child
}

// TotalHits returns how many times p has fired across this injector's whole
// Fork tree (every scan's and lane's child injector included). Nil injectors
// return 0.
func (in *Injector) TotalHits(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.agg.get(p)
}
