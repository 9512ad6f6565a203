// Package lanes is the concurrent form of the §7 scale-up design (Figure 23),
// once: a splitter deals whole pages round-robin to replicated Parser+Binner
// lanes, each accumulating partial counts (and its own sketch chain) in its
// own memory on its own goroutine, and the partial states are aggregated
// before the unchanged Histogram module (core.Config.Results) runs. Whole
// pages are the distribution unit — the Parser FSM resets at page boundaries,
// so lanes never share row state — and bin counts are order-insensitive, so
// the merged region is exactly a serial Binner's.
//
// The engine supervises its lanes and is strictly subordinate to whoever
// feeds it: a lane that panics or stalls is retired and its partial state
// discarded whole, a page its unit marks damaged is quarantined and counted,
// a feeder never waits on a sick lane longer than Config.StallTimeout, and
// Join never waits on all of them together longer than that. What the engine
// guarantees in return is an exact account: after Join, every page fed is
// either in a live lane's region, in a unit whose lane is Lost, or counted by
// Quarantined. What to do about a loss is the caller's policy — the data path
// replays it (Replay), the scan server cannot re-read the wire and reports a
// degraded statistic.
package lanes

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
)

// Unit is one fan-out unit: the page window [First, First+N) of Config.Pages,
// which the lane parses in place, plus the damage the splitter saw on the way.
// Bit k of Bad marks page First+k as corrupted in flight, and the last Cut
// pages never arrived whole (a slipped DMA); the lane quarantines both
// instead of parsing them. Pages are fully packed, so page index × capacity
// is the global row ordinal of a page's first value — what keeps
// position-sensitive sketch blocks exact whichever lane a unit lands on and
// whenever it is replayed.
type Unit struct {
	First, N int
	Bad      uint16
	Cut      int
}

// UnitPages is the splitter's dealing quantum. stream.ParallelDataPath deals
// the relation in consecutive units of this many pages, and so does the scan
// server whenever its frames are at least this long, so replica assignment —
// and with it each lane's cycles, the critical path and every simulated
// figure — is a function of the relation, not of a transport's frame size.
const UnitPages = 16

// Settings every engine gets: each has one right value, so neither is a
// Config field.
const (
	// queueDepth is each lane's queue in units. A full queue applies
	// backpressure to the feeder instead of dropping values, so a lane's
	// region is always complete. Queued units are windows into the stored
	// page images and pin no memory, so the depth is a yield quantum: how
	// many units a lane works through before it must block and hand its P
	// to the network poller, where requests on a server's other connections
	// wait to be noticed. Scans gain nothing measurable from more than 3,
	// and Stats reads beside a served scan get slower with every unit added
	// (EXPERIMENTS.md "Transport").
	queueDepth = 3
	// defaultStallTimeout is how long a lane may block a Feed, and all lanes
	// together Join, before being declared stalled and retired.
	defaultStallTimeout = 500 * time.Millisecond
)

// Unit.Bad must hold one bit per page of a dealt unit; this checks it.
var _ = Unit{Bad: 1<<UnitPages - 1}

// Config wires one scan's engine. It is plumbing between packages, not a set
// of options: every field but StallTimeout is determined by the caller's own
// configuration, and the engine fixes its queue depth itself.
type Config struct {
	// Lanes is the number of replicated Parser+Binner pairs.
	Lanes int
	// StallTimeout bounds one Feed's wait on a lane that stopped accepting
	// units, and Join's wait for all lanes together. Zero means 500 ms; only
	// the fault tests shorten or lengthen it.
	StallTimeout time.Duration
	// Column, Min, Max and Divisor are the host-provided metadata each lane's
	// Parser and Preprocessor are built from.
	Column            core.ColumnSpec
	Min, Max, Divisor int64
	// Pages are the relation's stable page images.
	Pages []*page.Page
	// Sketch is the one spec every lane's chain (and the replay lane's) is
	// built from, so chains always merge blockwise and are never adopted.
	Sketch sketch.ChainSpec
	// Faults drives lane.panic and lane.stall, and each lane chain's sketch.*
	// points, through one deterministic fork per lane named by Fork (a format
	// taking the lane index). Nil disables injection.
	Faults *faults.Injector
	Fork   string
	// Binner returns the configuration a lane builds its Binner from, given
	// that lane's injector (nil for the replay lane). It is a callback because
	// the callers differ in exactly one field that changes the model: a
	// non-nil BinnerConfig.Faults moves the lane onto the ECC-checked memory
	// and out of the scratch pool, which the server wants driven by the lane
	// injector and the data path must not get unasked. The engine sets
	// ProfLane and Sketches itself. Called on the lane's goroutine.
	Binner func(inj *faults.Injector) core.BinnerConfig
}

// lane is one replica: a private Parser and Binner fed through its own queue.
type lane struct {
	idx  int
	ch   chan Unit
	done chan struct{}
	inj  *faults.Injector

	// Written by the lane goroutine only; read by others once done is closed.
	binner      *core.Binner
	err         error // parse error or a panic nobody injected
	void        bool  // injected panic or stall: the partial state is worthless
	quarantined int64

	// startNS/endNS bound the goroutine's wall window for its trace span: two
	// clock reads per lane per scan. Atomics because a lane retired for
	// stalling may still be running when the spans are written; an unfinished
	// lane reads as 0 and AddSpan clamps that to "still open".
	startNS, endNS atomic.Int64

	// The feeder's view.
	dead   bool // retired: Feed skips it, FanIn leaves it out
	joined bool // Join saw the goroutine exit: the state above is quiescent
}

// errInjected is the panic value of lane.panic, so recovery can tell the
// chaos harness's faults (retire the lane) from real ones (surface the error).
var errInjected = errors.New("injected lane fault")

// Engine is one scan's set of lanes. Every method is called from the one
// goroutine that owns the scan.
type Engine struct {
	cfg     Config
	geom    core.Preprocessor
	pageCap int64
	lanes   []lane
	next    int // round-robin cursor
	// stall is Feed's wait on a full lane queue, allocated on the first one.
	stall *time.Timer

	// release unblocks injected stalls at Join, so no goroutine outlives it.
	release chan struct{}
	joined  bool

	replay      *lane
	retired     int
	quarantined int64
}

// Start validates the geometry and starts the lanes. Each lane builds its own
// Binner before its first unit — sizing (or recycling) the bin region is the
// one set-up step whose cost grows with the value range, so the lanes do it
// side by side and under the first units instead of in front of them.
func Start(cfg Config) (*Engine, error) {
	geom, err := core.RangeFor(cfg.Min, cfg.Max, cfg.Divisor)
	if err != nil {
		return nil, err
	}
	cfg.StallTimeout = cmp.Or(cfg.StallTimeout, defaultStallTimeout)
	e := &Engine{cfg: cfg, geom: *geom, lanes: make([]lane, cfg.Lanes), release: make(chan struct{})}
	if len(cfg.Pages) > 0 {
		e.pageCap = int64(cfg.Pages[0].Capacity())
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		l.idx = i
		l.ch = make(chan Unit, queueDepth)
		l.done = make(chan struct{})
		if cfg.Faults != nil {
			l.inj = cfg.Faults.Fork(fmt.Sprintf(cfg.Fork, i))
		}
		go e.run(l)
	}
	return e, nil
}

// newBinner builds one lane's Binner and sketch chain from the shared spec.
func (e *Engine) newBinner(l *lane) *core.Binner {
	bcfg := e.cfg.Binner(l.inj)
	if bcfg.Prof != nil {
		// Every lane charges its cycle attribution under its own frame; a
		// lane that never reaches FanIn never flushes, so discarded work
		// stays out of the profile.
		bcfg.ProfLane = "inline"
		if l.idx >= 0 {
			bcfg.ProfLane = fmt.Sprintf("lane%d", l.idx)
		}
	}
	chain := sketch.NewChain(e.cfg.Sketch)
	chain.SetFaults(l.inj)
	bcfg.Sketches = chain
	pre := e.geom
	return core.NewBinner(bcfg, &pre)
}

// run is the lane goroutine.
func (e *Engine) run(l *lane) {
	l.startNS.Store(time.Now().UnixNano())
	defer func() {
		if r := recover(); r == errInjected {
			l.void = true
		} else if r != nil {
			l.err = fmt.Errorf("lane panic: %v", r)
		}
		l.endNS.Store(time.Now().UnixNano())
		close(l.done)
	}()
	l.binner = e.newBinner(l)
	parser := core.NewParser(e.cfg.Column)
	var vals []int64
	for u := range l.ch {
		switch {
		case l.void || l.err != nil:
			// Drain only: a poisoned lane fails open, never blocks the feeder.
		case l.inj.Should(faults.LanePanic):
			panic(errInjected)
		case l.inj.Should(faults.LaneStall):
			l.void = true
			<-e.release // hold until Join, then drain
		default:
			vals, l.err = e.bin(l, parser, u, vals)
		}
	}
	// The lane's share of the sketch fold, done here so the lanes do it side
	// by side rather than the serial fan-in doing it for all of them.
	l.binner.FoldSketches()
}

// bin pushes one unit's pages through l's Parser and Binner: quarantine what
// arrived damaged, parse, position the sketch cursor, push. Lanes and the
// inline replay share it.
func (e *Engine) bin(l *lane, parser *core.Parser, u Unit, vals []int64) ([]int64, error) {
	for k := 0; k < u.N; k++ {
		idx := u.First + k
		if k >= u.N-u.Cut || u.Bad>>k&1 != 0 || idx >= len(e.cfg.Pages) {
			l.quarantined++
			continue
		}
		var err error
		if vals, err = parser.Feed(e.cfg.Pages[idx].Bytes(), vals[:0]); err != nil {
			return vals, err
		}
		l.binner.SetStreamPos(int64(idx) * e.pageCap)
		l.binner.PushAll(vals)
	}
	return vals, nil
}

func (e *Engine) retire(l *lane) {
	if !l.dead {
		l.dead = true
		e.retired++
	}
}

// Feed hands u to the next live lane, round-robin, and returns that lane's
// index. A full queue applies backpressure for up to StallTimeout — bounded
// memory — after which the lane is presumed stuck and retired; a lane whose
// goroutine died is retired on sight. When no lane is left to take the unit
// Feed returns -1 and the unit's rows are the caller's to account for.
func (e *Engine) Feed(u Unit) int {
	for tries := 0; tries < len(e.lanes); tries++ {
		l := &e.lanes[e.next]
		e.next = (e.next + 1) % len(e.lanes)
		if l.dead {
			continue
		}
		// Fast path: a lane that keeps up has queue space, so the send
		// succeeds without arming the stall timer. The timer runs only while
		// the lane is suspect, and one per engine serves every wait.
		select {
		case l.ch <- u:
			return l.idx
		case <-l.done:
			e.retire(l)
			continue
		default:
		}
		if e.stall == nil {
			e.stall = time.NewTimer(e.cfg.StallTimeout)
		} else {
			e.stall.Reset(e.cfg.StallTimeout)
		}
		select {
		case l.ch <- u:
			e.stopStall()
			return l.idx
		case <-l.done:
			e.stopStall()
		case <-e.stall.C:
		}
		e.retire(l)
	}
	return -1
}

// stopStall disarms the stall timer after a wait that did not read its fire,
// draining a fire that beat the Stop so the next Reset starts clean.
func (e *Engine) stopStall() {
	if !e.stall.Stop() {
		<-e.stall.C
	}
}

// Join ends the input: it unblocks injected stalls first, closes the queues,
// and waits for the lanes against one absolute deadline, StallTimeout from
// now. The deadline is a wall-clock instant and the timer is re-armed for
// each wait, so any number of lanes wedged at drain time are each retired in
// turn (a one-shot timer fires once and leaves the next wedged lane blocking
// for ever). A lane that misses the deadline exits on its own later — its
// queue is closed — and its state is never touched again. Idempotent.
func (e *Engine) Join() {
	if e.joined {
		return
	}
	e.joined = true
	close(e.release)
	for i := range e.lanes {
		close(e.lanes[i].ch)
	}
	deadline := time.Now().Add(e.cfg.StallTimeout)
	var timer *time.Timer
	for i := range e.lanes {
		l := &e.lanes[i]
		select {
		case <-l.done:
			l.joined = true
			continue
		default:
		}
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
		} else {
			// A fire left unread means the deadline has passed, which is
			// all the next wait would learn from a fresh one.
			timer.Reset(time.Until(deadline))
		}
		select {
		case <-l.done:
			l.joined = true
		case <-timer.C:
			e.retire(l)
		}
	}
	if timer != nil {
		timer.Stop()
	}
	// Settle the casualty list now that the joined lanes' flags are visible.
	for i := range e.lanes {
		if l := &e.lanes[i]; l.joined {
			if l.void {
				e.retire(l)
			}
			e.quarantined += l.quarantined
		}
	}
}

// Lost reports, after Join, whether the units Feed gave this lane are missing
// from the merge. Lane -1 — units Feed refused — always is.
func (e *Engine) Lost(lane int) bool {
	return lane < 0 || e.lanes[lane].dead
}

// Retired is how many lanes the supervisor removed (panic, stall, missed
// deadline); Quarantined is how many pages the joined lanes and the replay
// skipped as damaged or cut away. Both settle at Join.
func (e *Engine) Retired() int       { return e.retired }
func (e *Engine) Quarantined() int64 { return e.quarantined }

// Replay bins units inline, on the caller's goroutine, in one extra lane with
// no fault points — the path that is exact by construction, for a caller that
// can read its lost units again. Call once, between Join and FanIn; an empty
// list still yields an (empty) region, so a scan that lost every lane has one
// to merge.
func (e *Engine) Replay(units []Unit) error {
	l := &lane{idx: -1, joined: true}
	l.startNS.Store(time.Now().UnixNano())
	l.binner = e.newBinner(l)
	e.replay = l
	parser := core.NewParser(e.cfg.Column)
	var vals []int64
	for _, u := range units {
		var err error
		if vals, err = e.bin(l, parser, u, vals); err != nil {
			return err
		}
	}
	e.quarantined += l.quarantined
	l.endNS.Store(time.Now().UnixNano())
	return nil
}

// FanIn is the result of aggregating the live lanes' partial states.
type FanIn struct {
	// Survivor holds the merged bin region and sketch chain. It belongs to
	// the caller, which alone decides when (if ever) its scratch may be
	// released. Nil when nothing was merged: every lane lost and no replay.
	Survivor *core.Binner
	// Stats is the merged accounting with Cycles replaced by the critical
	// path: the slowest lane plus the aggregation pass.
	Stats core.BinnerStats
	// PerLane is each lane's own accounting by lane index (zero for retired
	// lanes, whose work was discarded; the replay lane is not listed). Valid
	// even when FanIn returns an error: it is what the lanes flushed to prof.
	PerLane []core.BinnerStats
	// AggregationCycles is the line-parallel merge cost of the bin regions
	// (hw.AggregationCycles), zero when a single region needed no adder tree.
	AggregationCycles int64
	// Merges is how many regions were folded into the survivor.
	Merges int
	// Span indexes the "merge" span FanIn opened on the trace once the lanes
	// were finished; the caller ends it, charged with everything past the
	// lanes' own binning. -1 when nothing was merged or tracing is off.
	Span int
}

// FanIn joins if needed, then finishes every live lane, merges them (and the
// replay lane) into the first, and prices the result. Every lane gets a span
// on tr: a retired one marked, with its discarded cycles zeroed, whatever
// FanIn returns; a live one when it is finished. A lane's real error (a parse
// failure, a panic nobody injected) is returned before any lane is finished,
// so nothing is flushed to prof for a scan that fails this way.
func (e *Engine) FanIn(tr *obs.ScanRecord, prof *hwprof.Profiler, binsPerLine int) (FanIn, error) {
	e.Join()
	out := FanIn{PerLane: make([]core.BinnerStats, len(e.lanes)), Span: -1}
	var live [16]*lane
	merge := live[:0]
	var err error
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.dead {
			tr.AddSpan("lane", i, l.startNS.Load(), l.endNS.Load(), 0, true)
			continue
		}
		if l.err != nil && err == nil {
			err = fmt.Errorf("lane %d: %w", i, l.err)
		}
		merge = append(merge, l)
	}
	if e.replay != nil {
		merge = append(merge, e.replay)
	}
	if err != nil || len(merge) == 0 {
		// Failed, or nothing survived: finish and merge nothing.
		return out, err
	}
	var cycles [16]int64
	laneCycles := cycles[:0]
	for _, l := range merge {
		_, st := l.binner.Finish()
		laneCycles = append(laneCycles, st.Cycles)
		name := "inline"
		if l.idx >= 0 {
			name = "lane"
			out.PerLane[l.idx] = st
		}
		// Wall clock from the lane goroutine's own stamps, hardware cost from
		// its binning completion cycle: max(lane cycles) + the caller's merge
		// span is the scan's accelerator time.
		tr.AddSpan(name, l.idx, l.startNS.Load(), l.endNS.Load(), st.Cycles, false)
	}
	out.Span = tr.Begin("merge")
	survivor := merge[0].binner
	merge[0].binner = nil // the caller's from here on; Close must not park it
	var rest [16]*core.Binner
	others := rest[:0]
	for _, l := range merge[1:] {
		others = append(others, l.binner)
	}
	if err := survivor.MergeLanes(others); err != nil {
		return out, fmt.Errorf("lane merge: %w", err)
	}
	vec, stats := survivor.Finish()
	out.Merges = len(merge) - 1
	if out.Merges > 0 {
		// A single region needs no adder tree, so its accounting matches a
		// serial Binner exactly; several pay one aggregation pass over Δ.
		// When Δ is large against the per-lane work that pass can dominate
		// and sharding stops paying — the model shows it rather than hiding it.
		out.AggregationCycles = hw.AggregationCycles(vec.NumBins(), binsPerLine)
		if prof != nil {
			n := prof.Node("merged", "aggregate", "fanin", hwprof.ReasonAgg)
			n.Add(out.AggregationCycles)
			n.AddEvents(1)
		}
	}
	stats.Cycles = hw.CriticalPath(laneCycles, out.AggregationCycles)
	out.Survivor, out.Stats = survivor, stats
	return out, nil
}

// Close joins if needed and parks the scratch and sketch chain of every lane
// whose state is provably private and not the caller's: joined, and not
// handed out as FanIn's survivor. A lane that missed the Join deadline may
// still be running and keeps its state — the pools never see memory a
// goroutine could touch. Idempotent.
func (e *Engine) Close() {
	e.Join()
	park := func(l *lane) {
		if l != nil && l.joined && l.binner != nil {
			l.binner.SketchChain().Release()
			l.binner.Release()
			l.binner = nil
		}
	}
	for i := range e.lanes {
		park(&e.lanes[i])
	}
	park(e.replay)
}
