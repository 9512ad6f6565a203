package bench

import (
	"fmt"
	"time"

	"streamhist/internal/dbms"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

// Fig1Config scales the §2 motivating experiment. The paper runs lineitem
// at SF10 (60M rows) with the price-2001 spike inflated to 120k rows; the
// default here is a 1/20 replica, which preserves the spike fraction and
// the plan-choice mechanics while executing in seconds.
type Fig1Config struct {
	LineitemRows int
	CustomerRows int
	SpikeRows    int
	XValues      []int64
}

// DefaultFig1Config returns the 1/20-scale replica.
func DefaultFig1Config() Fig1Config {
	return Fig1Config{
		LineitemRows: 3_000_000,
		CustomerRows: 150_000,
		SpikeRows:    6_000,
		XValues:      []int64{2000, 5000, 10000, 20000},
	}
}

const spikePriceCents = 200100 // the "2001" price literal, in cents

// Fig1 reproduces Figure 1: Q1 join time as a function of x, with accurate
// versus outdated statistics. Both configurations run the same real
// executor; only the catalog contents differ, so the gap is genuinely the
// cost of the mis-planned join.
func Fig1(cfg Fig1Config) *Report {
	r := &Report{
		ID:      "fig1",
		Title:   "Effect of fresh statistics on query plans (Q1 join time)",
		Columns: []string{"x (line 10 of Q1)", "accurate stats", "plan", "outdated stats", "plan", "slowdown"},
	}
	db := dbms.NewDatabase(dbms.DBx())
	db.AddTable(tpch.Lineitem(cfg.LineitemRows, 10, 61))
	db.AddTable(tpch.Customer(cfg.CustomerRows, 62))

	// Stats gathered BEFORE the update: the "outdated" catalog.
	mustGather(db, "lineitem", "l_extendedprice")
	mustGather(db, "customer", "c_custkey")
	db.MutateColumn("lineitem", func(rel *table.Relation) {
		tpch.InflateValue(rel, "l_extendedprice", spikePriceCents, cfg.SpikeRows, 63)
	})
	staleEst := db.Catalog.EstimateEquals("lineitem", "l_extendedprice", spikePriceCents)

	type point struct {
		stale, fresh *dbms.Q1Result
	}
	points := make([]point, 0, len(cfg.XValues))
	for _, x := range cfg.XValues {
		res := dbms.RunQ1(db, dbms.Q1Params{Price: spikePriceCents, KeyLimit: x})
		points = append(points, point{stale: res})
	}

	// Refresh the statistics (what the accelerator would have done for
	// free on the next scan) and rerun.
	mustGather(db, "lineitem", "l_extendedprice")
	freshEst := db.Catalog.EstimateEquals("lineitem", "l_extendedprice", spikePriceCents)
	for i, x := range cfg.XValues {
		points[i].fresh = dbms.RunQ1(db, dbms.Q1Params{Price: spikePriceCents, KeyLimit: x})
	}

	for i, x := range cfg.XValues {
		st, fr := points[i].stale, points[i].fresh
		slow := float64(st.JoinTime) / float64(fr.JoinTime)
		r.AddRaw("fresh", fr.JoinTime.Seconds())
		r.AddRaw("stale", st.JoinTime.Seconds())
		r.AddRaw("slowdown", slow)
		r.AddRow(fmt.Sprintf("%d", x),
			fr.JoinTime.String(), fr.Plan.Method.String(),
			st.JoinTime.String(), st.Plan.Method.String(),
			fmt.Sprintf("%.1fx", slow))
	}
	r.AddRaw("staleEstimate", staleEst)
	r.AddRaw("freshEstimate", freshEst)
	r.AddRaw("actualOuter", float64(points[0].stale.ActualOuter))
	r.Notes = append(r.Notes,
		fmt.Sprintf("outdated catalog estimates %d spike rows as %.1f; fresh sees %.0f (actual %d)",
			cfg.SpikeRows, staleEst, freshEst, points[0].stale.ActualOuter),
		fmt.Sprintf("1/20-scale replica of the paper's SF10 setup (%d lineitem rows, spike %d)",
			cfg.LineitemRows, cfg.SpikeRows),
		"expected shape: outdated-stats times grow steeply with x; accurate-stats times stay near-flat")
	return r
}

// Fig21Config scales the PostgreSQL plan-oscillation experiment.
type Fig21Config struct {
	LineitemRows int
	SpikeRows    int
	// JoinCustomers are the x values: the paper's 2000×{5000,10000,15000}.
	JoinCustomers []int64
	// OscillationTrials and OscillationPct drive the sampling-detection
	// side experiment.
	OscillationTrials int
	OscillationPct    float64
}

// DefaultFig21Config returns a 1/10-scale SF1 replica.
func DefaultFig21Config() Fig21Config {
	return Fig21Config{
		LineitemRows:  600_000,
		SpikeRows:     2_000,
		JoinCustomers: []int64{5000, 10000, 15000},
		// 0.035% puts the expected number of sampled spike rows near one —
		// the marginal-detection regime PostgreSQL's fixed 30k-row sample
		// created for the paper's 2000-row spikes, where ANALYZE detects
		// each spike "only with roughly 50% probability".
		OscillationTrials: 40,
		OscillationPct:    0.035,
	}
}

// Fig21 reproduces Figure 21: in PostgreSQL, wrongly chosen plans (NLJ when
// the spike went undetected by sampling vs SMJ with accurate histograms)
// lead to significant performance differences that grow with the join size.
// It also quantifies the §6.2 oscillation: how often under-sampling misses
// the spike and flips the plan. Each join time is the fastest of three runs
// (see fastestJoin).
func Fig21(cfg Fig21Config) *Report {
	r := &Report{
		ID:      "fig21",
		Title:   "PostgreSQL plan oscillation: join time with accurate vs inaccurate statistics",
		Columns: []string{"join size (items x customers)", "accurate stats (SMJ)", "inaccurate stats (NLJ)", "slowdown"},
	}
	db := dbms.NewDatabase(dbms.Postgres())
	db.AddTable(tpch.Lineitem(cfg.LineitemRows, 1, 71))
	db.AddTable(tpch.Customer(20000, 72))
	db.MutateColumn("lineitem", func(rel *table.Relation) {
		tpch.InflateValue(rel, "l_extendedprice", spikePriceCents, cfg.SpikeRows, 73)
	})
	// Make the equality join productive: plant the somelines val into some
	// customer balances. val = l_tax * l_extendedprice; use tax=0 rows so
	// val=0 and give some customers balance 0.
	mustGather(db, "customer", "c_custkey")

	for _, x := range cfg.JoinCustomers {
		good := fastestJoin(db, x, dbms.SortMerge)
		bad := fastestJoin(db, x, dbms.NestedLoops)
		r.AddRaw("smj", good.Seconds())
		r.AddRaw("nlj", bad.Seconds())
		r.AddRow(fmt.Sprintf("%dx%d", cfg.SpikeRows, x),
			good.String(), bad.String(),
			fmt.Sprintf("%.1fx", float64(bad)/float64(good)))
	}

	// Oscillation: repeat ANALYZE with different sampling seeds and count
	// how often the planner would pick NLJ (spike missed or diluted).
	nljPicks := 0
	for trial := 0; trial < cfg.OscillationTrials; trial++ {
		res, err := db.Analyzer.Analyze(db.Table("lineitem"), dbms.AnalyzeOptions{
			Column:    "l_extendedprice",
			SamplePct: cfg.OscillationPct,
			Seed:      uint64(100 + trial),
		})
		if err != nil {
			panic(err)
		}
		est := res.Histogram.EstimateEquals(spikePriceCents)
		plan := dbms.ChooseJoin(db.Costs, est, 15000, true)
		if plan.Method == dbms.NestedLoops {
			nljPicks++
		}
	}
	r.AddRaw("nljPicks", float64(nljPicks))
	r.AddRaw("trials", float64(cfg.OscillationTrials))
	r.Notes = append(r.Notes,
		fmt.Sprintf("oscillation: with %.2f%%-row samples the planner picked NLJ in %d/%d ANALYZE runs (spike detection is probabilistic)",
			cfg.OscillationPct, nljPicks, cfg.OscillationTrials),
		fmt.Sprintf("1/10-scale SF1 replica (%d rows, %d-row spikes); PostgreSQL's fixed 30k-row sample corresponds to the sub-percent rate used here",
			cfg.LineitemRows, cfg.SpikeRows),
		"expected shape: NLJ times grow with the customer count; SMJ stays near-flat")
	return r
}

// fastestJoin runs Fig. 21's equality join against x customers with the
// given method three times and returns the shortest join time. Other work on
// the machine can only lengthen a wall-clock reading, so the minimum is the
// one that compares two methods.
func fastestJoin(db *dbms.Database, x int64, method dbms.JoinMethod) time.Duration {
	var best time.Duration
	for run := 0; run < 3; run++ {
		t := dbms.RunQ1(db, dbms.Q1Params{
			Price: spikePriceCents, KeyLimit: x, Equality: true, ForceMethod: &method,
		}).JoinTime
		if run == 0 || t < best {
			best = t
		}
	}
	return best
}

func mustGather(db *dbms.Database, tbl, col string) {
	if _, err := db.GatherStats(tbl, col, 100, 7); err != nil {
		panic(err)
	}
}
