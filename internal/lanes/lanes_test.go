package lanes_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/lanes"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

const (
	stallTimeout = 100 * time.Millisecond
	unitPages    = 2
)

// fixture is one relation's pages with everything a policy-free caller of the
// engine knows about them, and the serial Binner's view to compare against.
type fixture struct {
	cfg    lanes.Config // Lanes, Faults and Binner left for the case to set
	rows   []int64      // rows per page
	serial *bins.Vector
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rel := tpch.Lineitem(6000, 1, 71)
	const column = "l_quantity"
	spec, err := core.SpecFor(rel.Schema, column)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := core.ColumnRange(rel.ColumnByName(column))
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{cfg: lanes.Config{
		Column: spec, Min: lo, Max: hi, Divisor: 1,
		Pages:  page.Encode(rel),
		Sketch: sketch.DefaultChainSpec(), Fork: "lane%d",
		StallTimeout: stallTimeout,
	}}
	for _, pg := range f.cfg.Pages {
		f.rows = append(f.rows, int64(pg.NumRows()))
	}
	pre, err := core.RangeFor(lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBinner(core.DefaultBinnerConfig(), pre)
	b.PushAll(rel.ColumnByName(column))
	f.serial = b.Vector()
	return f
}

// unit is the k-th fan-out unit of the fixture, undamaged.
func (f *fixture) unit(k int) lanes.Unit {
	first := k * unitPages
	return lanes.Unit{First: first, N: min(unitPages, len(f.cfg.Pages)-first)}
}

func (f *fixture) units() int { return (len(f.cfg.Pages) + unitPages - 1) / unitPages }

type laneCase struct {
	name    string
	profile faults.Profile
	// damage returns unit k as it is fed, and which of its pages can no
	// longer be binned from it.
	damage func(f *fixture, k int) (lanes.Unit, []int)
	// wedge blocks every lane inside its Binner callback until the scan is
	// over: the lanes miss the Join deadline instead of being released by it.
	wedge bool
	// exactSplit: no fault moves work between lanes, so the accounting (not
	// only the merged state) must repeat exactly on pooled scratch.
	exactSplit bool
}

var laneCases = []laneCase{
	{name: "clean", exactSplit: true},
	{name: "panic", profile: faults.Profile{faults.LanePanic: 1.0}},
	{name: "stall", profile: faults.Profile{faults.LaneStall: 1.0}},
	{name: "truncated", exactSplit: true, damage: func(f *fixture, k int) (lanes.Unit, []int) {
		u := f.unit(k)
		if k%3 != 1 || u.N < 2 {
			return u, nil
		}
		u.Cut = u.N - 1 // the second page arrives half
		return u, []int{u.First + 1}
	}},
	{name: "checksum", exactSplit: true, damage: func(f *fixture, k int) (lanes.Unit, []int) {
		u := f.unit(k)
		if k%4 != 2 {
			return u, nil
		}
		u.Bad = 1 // the first page is corrupted in flight
		return u, []int{u.First}
	}},
	{name: "wedged", wedge: true},
}

// outcome is what one engine run left behind beyond the bin counts, which run
// itself holds to the serial Binner's.
type outcome struct {
	sketches [][]byte
	stats    core.BinnerStats
}

// run drives one scan through the engine the way any caller must — Start,
// Feed every unit, Join, optionally Replay what was lost, FanIn, Close — and
// checks the engine's own guarantees on the way. With replay off it checks
// the accounting identity; with replay on, that the merged state is exactly
// the serial Binner's.
func (f *fixture) run(t *testing.T, tc laneCase, nLanes int, replay bool) *outcome {
	t.Helper()
	cfg := f.cfg
	cfg.Lanes = nLanes
	if tc.profile != nil {
		cfg.Faults = faults.New(17, tc.profile)
	}
	unwedge := make(chan struct{})
	cfg.Binner = func(inj *faults.Injector) core.BinnerConfig {
		if tc.wedge && inj != nil {
			<-unwedge
		}
		return core.DefaultBinnerConfig()
	}
	if tc.wedge {
		cfg.Faults = faults.New(17, faults.Profile{}) // so lanes (not the replay) get an injector
	}
	eng, err := lanes.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer close(unwedge)

	owner := make([]int, f.units())
	damaged := map[int]bool{}
	var fed int64
	for k := range owner {
		u := f.unit(k)
		if tc.damage != nil {
			var bad []int
			u, bad = tc.damage(f, k)
			for _, p := range bad {
				damaged[p] = true
			}
		}
		for p := u.First; p < u.First+u.N; p++ {
			fed += f.rows[p]
		}
		owner[k] = eng.Feed(u)
		if owner[k] >= nLanes {
			t.Fatalf("Feed returned lane %d of %d", owner[k], nLanes)
		}
	}

	start := time.Now()
	eng.Join()
	if took := time.Since(start); took > 2*stallTimeout {
		t.Fatalf("Join took %v, over twice the %v stall timeout", took, stallTimeout)
	}

	// The account: every page fed is in a lost unit, quarantined, or merged.
	var lost []lanes.Unit
	var lostRows, quarantinedRows, quarantinedPages int64
	for k, lane := range owner {
		u := f.unit(k)
		for p := u.First; p < u.First+u.N; p++ {
			switch {
			case eng.Lost(lane):
				lostRows += f.rows[p]
			case damaged[p]:
				quarantinedRows += f.rows[p]
				quarantinedPages++
				lost = append(lost, lanes.Unit{First: p, N: 1})
			}
		}
		if eng.Lost(lane) {
			lost = append(lost, u)
		}
	}
	if got := eng.Quarantined(); got != quarantinedPages {
		t.Fatalf("engine quarantined %d pages, the damage done was %d", got, quarantinedPages)
	}
	switch {
	case tc.profile != nil || tc.wedge:
		if eng.Retired() != nLanes {
			t.Fatalf("retired %d of %d lanes that all faulted", eng.Retired(), nLanes)
		}
	case eng.Retired() != 0:
		t.Fatalf("retired %d lanes with no lane fault injected", eng.Retired())
	}

	if replay && (eng.Retired() > 0 || len(lost) > 0) {
		if err := eng.Replay(lost); err != nil {
			t.Fatal(err)
		}
	}
	fan, err := eng.FanIn(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var merged int64
	if fan.Survivor != nil {
		merged = fan.Stats.Items
	}
	if !replay {
		if merged+lostRows+quarantinedRows != fed {
			t.Fatalf("merged %d + lost %d + quarantined %d rows != %d fed", merged, lostRows, quarantinedRows, fed)
		}
		return nil
	}

	vec := fan.Survivor.Vector()
	out := &outcome{stats: fan.Stats}
	for i := 0; i < vec.NumBins(); i++ {
		if vec.Count(i) != f.serial.Count(i) {
			t.Fatalf("bin %d is %d after replay, the serial binner has %d", i, vec.Count(i), f.serial.Count(i))
		}
	}
	if merged != fed || vec.NumBins() != f.serial.NumBins() {
		t.Fatalf("merged %d rows in %d bins, serial has %d in %d", merged, vec.NumBins(), fed, f.serial.NumBins())
	}
	if out.sketches, err = sketch.EncodeBlocks(fan.Survivor.SketchChain().Blocks()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLaneEngineFaults holds the engine, with no caller policy around it, to what
// its package comment promises: across lane counts and every way a lane or a
// unit can fail, rows merged + rows in lost units + rows on quarantined pages
// = rows fed; replaying exactly the lost units makes the merged region the
// serial Binner's; Join is bounded by the stall timeout however the lanes are
// stuck; a scan on scratch the previous scans parked is bit-identical to the
// one before; and no goroutine outlives Close.
func TestLaneEngineFaults(t *testing.T) {
	f := newFixture(t)
	baseline := runtime.NumGoroutine()
	for _, nLanes := range []int{1, 3} {
		for _, tc := range laneCases {
			t.Run(tc.name+"/"+string(rune('0'+nLanes)), func(t *testing.T) {
				f.run(t, tc, nLanes, false)
				fresh := f.run(t, tc, nLanes, true)
				pooled := f.run(t, tc, nLanes, true)
				for i := range fresh.sketches {
					if !bytes.Equal(fresh.sketches[i], pooled.sketches[i]) {
						t.Fatalf("sketch block %d differs on pooled scratch", i)
					}
				}
				if tc.exactSplit && fresh.stats != pooled.stats {
					t.Fatalf("accounting differs on pooled scratch: %+v != %+v", pooled.stats, fresh.stats)
				}
			})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("%d goroutines before, %d after every engine was closed", baseline, g)
	}
}
