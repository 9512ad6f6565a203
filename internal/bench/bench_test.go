package bench

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3to6", "fig7", "table1", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "table2", "fig22", "accuracy", "variety",
		"ablation-cache", "ablation-scaleup", "ablation-regions", "ablation-divisor",
		"ablation-memory", "datapath", "parallel", "hwprof", "freshness", "piggyback", "access"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d runners, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("runner %d = %q, want %q", i, all[i].ID, id)
		}
	}
	if ByID("fig16") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Notes = append(r.Notes, "n1")
	s := r.String()
	for _, frag := range []string{"demo", "a", "bb", "1", "2", "note: n1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered report missing %q:\n%s", frag, s)
		}
	}
}

func TestSecondsFormatting(t *testing.T) {
	cases := map[float64]string{
		120:    "120s",
		2.5:    "2.5s",
		0.0021: "2.1ms",
		4e-6:   "4.0µs",
		5e-9:   "5ns",
	}
	for in, want := range cases {
		if got := seconds(in); got != want {
			t.Errorf("seconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7()
	explicit := r.Raw["explicit"][0]
	sampled := r.Raw["explicit-sampled"][0]
	implicit := r.Raw["implicit"][0]
	if implicit >= sampled || sampled >= explicit {
		t.Errorf("ordering broken: implicit %v, sampled %v, explicit %v",
			implicit, sampled, explicit)
	}
	// The implicit design's post-scan cost is sub-second even for a
	// million-bin column.
	if implicit > 1 {
		t.Errorf("implicit cost %vs too large", implicit)
	}
}

func TestFig3to6Shape(t *testing.T) {
	r := Fig3to6()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	errs := r.Raw["err"]
	// Rows: equi-width, equi-depth, compressed, max-diff. §3's ranking:
	// equi-width "does not represent skewed data very well"; the others
	// all beat it; compressed handles the heavy hitter exactly.
	eqw, eqd, comp, md := errs[0], errs[1], errs[2], errs[3]
	if eqw <= eqd || eqw <= comp || eqw <= md {
		t.Errorf("equi-width (%.5f) should be worst: %v", eqw, errs)
	}
	if comp > eqd {
		t.Errorf("compressed (%.5f) should beat equi-depth (%.5f)", comp, eqd)
	}
}

func TestTable1RatesMatchPaper(t *testing.T) {
	r := Table1()
	rates := r.Raw["rate"]
	if len(rates) != 3 {
		t.Fatalf("raw rates = %v", rates)
	}
	paper := []float64{20e6, 50e6, 75e6}
	for i, want := range paper {
		if math.Abs(rates[i]-want)/want > 0.03 {
			t.Errorf("rate %d = %.1f M/s, paper %v M/s", i, rates[i]/1e6, want/1e6)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	disk, mem, scan := r.Raw["disk"], r.Raw["memory"], r.Raw["scan"]
	// Every analyze level costs more than the table scan on its medium.
	for i := range disk {
		if disk[i] <= scan[0] {
			t.Errorf("disk analyze row %d (%.1fs) not above disk scan (%.1fs)", i, disk[i], scan[0])
		}
		if mem[i] <= scan[1] {
			t.Errorf("memory analyze row %d (%.1fs) not above memory scan (%.1fs)", i, mem[i], scan[1])
		}
		if disk[i] <= mem[i] {
			t.Errorf("row %d: disk (%.1fs) not above memory (%.1fs)", i, disk[i], mem[i])
		}
	}
	// Sampling rates decrease monotonically down the rows.
	for i := 1; i < len(mem); i++ {
		if mem[i] >= mem[i-1] {
			t.Errorf("memory analyze not decreasing with sampling: %v", mem)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	r := Fig16()
	fpga := r.Raw["fpga"]
	dbx100, dbx5 := r.Raw["DBx100"], r.Raw["DBx5"]
	dby100, dby5 := r.Raw["DBy100"], r.Raw["DBy5"]
	for i := range fpga {
		// FPGA wins by a wide margin at every size.
		if fpga[i]*4 > dbx5[i] {
			t.Errorf("row %d: FPGA %.1fs not clearly below DBx5%% %.1fs", i, fpga[i], dbx5[i])
		}
		if fpga[i] > dby5[i] || fpga[i] > dbx100[i] || fpga[i] > dby100[i] {
			t.Errorf("row %d: FPGA not fastest", i)
		}
	}
	// DBy's sampling barely helps (the prescan dominates).
	last := len(fpga) - 1
	if dby100[last]/dby5[last] > 3 {
		t.Errorf("DBy 5%% too proportional: %.1f vs %.1f", dby5[last], dby100[last])
	}
	// DBx's sampling helps a lot.
	if dbx100[last]/dbx5[last] < 3 {
		t.Errorf("DBx 5%% not proportional enough: %.1f vs %.1f", dbx5[last], dbx100[last])
	}
	// Everything grows with table size.
	for _, series := range [][]float64{fpga, dbx100, dbx5, dby100, dby5} {
		for i := 1; i < len(series); i++ {
			if series[i] <= series[i-1] {
				t.Errorf("series not increasing with rows: %v", series)
				break
			}
		}
	}
}

func TestFig17Shape(t *testing.T) {
	r := Fig17()
	fpga := r.Raw["fpga"]
	for _, p := range []string{"DBx", "DBy"} {
		wide := r.Raw[p+"-w64"]
		narrow := r.Raw[p+"-w8"]
		last := len(fpga) - 1
		if narrow[last] >= wide[last] {
			t.Errorf("%s: 1-column (%.1fs) not cheaper than 8-column (%.1fs)", p, narrow[last], wide[last])
		}
		// Even the best case stays well above the FPGA (paper: ~10x).
		if narrow[last] < 5*fpga[last] {
			t.Errorf("%s 1-column (%.1fs) too close to FPGA (%.1fs)", p, narrow[last], fpga[last])
		}
	}
}

func TestFig18Shape(t *testing.T) {
	r := Fig18()
	fpga := r.Raw["fpga"]
	last := len(fpga) - 1
	i1100, i15 := r.Raw["index-w8-100"], r.Raw["index-w8-5"]
	i8100, i85 := r.Raw["index-w64-100"], r.Raw["index-w64-5"]
	// Index hides row width: Index1 == Index8.
	for i := range i1100 {
		if i1100[i] != i8100[i] || i15[i] != i85[i] {
			t.Error("index analyze depends on base-row width")
			break
		}
	}
	// 5% sampling on the index catches up with the FPGA (same order).
	if i15[last] > 10*fpga[last] {
		t.Errorf("sampled index (%.2fs) does not approach FPGA (%.2fs)", i15[last], fpga[last])
	}
}

func TestFig19Shape(t *testing.T) {
	r := Fig19()
	fpga := r.Raw["fpga"]
	dbx100 := r.Raw["dbx100"]
	// Rows: l_quantity, l_orderkey, l_extendedprice.
	if !(dbx100[0] < dbx100[1] && dbx100[0] < dbx100[2]) {
		t.Errorf("low-cardinality column not cheapest for DBx: %v", dbx100)
	}
	// FPGA roughly flat across columns (within ~6x while DBx spans more).
	minF, maxF := fpga[0], fpga[0]
	for _, v := range fpga {
		minF = math.Min(minF, v)
		maxF = math.Max(maxF, v)
	}
	if maxF/minF > 6 {
		t.Errorf("FPGA spread %.1fx too large: %v", maxF/minF, fpga)
	}
	for i := range fpga {
		if fpga[i] > dbx100[i] {
			t.Errorf("row %d: FPGA slower than DBx 100%%", i)
		}
	}
}

func TestFig20Shape(t *testing.T) {
	r := Fig20()
	dbx100 := r.Raw["dbx100"]
	// Skew has little effect on the DBMS: all four values equal (the cost
	// model keys on cardinality, which is constant here).
	for i := 1; i < len(dbx100); i++ {
		if dbx100[i] != dbx100[0] {
			t.Errorf("DBx time varies with skew: %v", dbx100)
			break
		}
	}
	fpga := r.Raw["fpga"]
	// FPGA within a narrow band; skew may only make it faster.
	for i := 1; i < len(fpga); i++ {
		if fpga[i] > fpga[0]*1.05 {
			t.Errorf("FPGA slower under skew: %v", fpga)
			break
		}
	}
}

func TestFig22Shape(t *testing.T) {
	r := Fig22()
	for _, series := range []string{"topk", "equidepth", "maxdiff"} {
		v := r.Raw[series]
		// Linear in Δ: equal increments (Δ steps are uniform).
		step := v[1] - v[0]
		for i := 2; i < len(v); i++ {
			if math.Abs((v[i]-v[i-1])-step) > step*0.05 {
				t.Errorf("%s not linear: %v", series, v)
				break
			}
		}
	}
	// MaxDiff ≈ TopK + EquiDepth (§6.3).
	last := len(r.Raw["topk"]) - 1
	sum := r.Raw["topk"][last] + r.Raw["equidepth"][last]
	if math.Abs(r.Raw["maxdiff"][last]-sum)/sum > 0.05 {
		t.Errorf("maxdiff %.3fs != topk+equidepth %.3fs", r.Raw["maxdiff"][last], sum)
	}
}

func TestTable2Report(t *testing.T) {
	r := Table2()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][3] != "2Δ+2T" || r.Rows[1][3] != "2Δ/B" {
		t.Errorf("latency formulas wrong: %v", r.Rows)
	}
}

func TestAccuracyShape(t *testing.T) {
	r := Accuracy()
	point := r.Raw["point"]
	// Rows: FPGA equi-depth, max-diff, compressed, then samples 50/20/10/5.
	fpgaED := point[0]
	for i, pct := range []int{50, 20, 10, 5} {
		// 2% tolerance: a 50% sample is a statistical near-tie.
		if fpgaED > point[3+i]*1.02 {
			t.Errorf("full-data equi-depth error %.6f worse than %d%% sample %.6f", fpgaED, pct, point[3+i])
		}
	}
	// Compressed (exact heavy hitters) beats plain equi-depth on points.
	if point[2] > point[0] {
		t.Errorf("compressed point error %.6f above equi-depth %.6f", point[2], point[0])
	}
}

func TestAccessShape(t *testing.T) {
	r := Access()
	staleIdx, freshIdx := r.Raw["staleIdx"], r.Raw["freshIdx"]
	// Stale stats always keep the index path.
	for i, v := range staleIdx {
		if v != 1 {
			t.Errorf("row %d: stale plan left the index path", i)
		}
	}
	// Fresh stats use the index for the selective spikes and flip to the
	// scan for the big ones.
	if freshIdx[0] != 1 {
		t.Error("tiny spike should stay on the index path")
	}
	last := len(freshIdx) - 1
	if freshIdx[last] != 0 {
		t.Error("20% spike should flip to SeqScan")
	}
}

func TestPiggybackShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive median measurements")
	}
	r := Piggyback()
	plain := r.Raw["plain"][0]
	piggy := r.Raw["piggyback"][0]
	accel := r.Raw["accelerator"][0]
	if piggy <= plain {
		t.Errorf("piggyback (%.3gs) not slower than plain (%.3gs)", piggy, plain)
	}
	// The accelerator's overhead is bounded by the splitter latency.
	if accel-plain > 1e-3 {
		t.Errorf("accelerator overhead %.3gs too large", accel-plain)
	}
	if accel >= piggy {
		t.Error("accelerator not cheaper than piggyback")
	}
}

func TestFreshnessShape(t *testing.T) {
	r := Freshness()
	nightly := r.Raw["nightly"][0]
	auto := r.Raw["autostats"][0]
	accel := r.Raw["accelerator"][0]
	if accel > 0.01 {
		t.Errorf("accelerator regime mean error = %v, want ~0", accel)
	}
	if accel >= auto || auto >= nightly {
		t.Errorf("freshness ordering broken: accel %v, autostats %v, nightly %v",
			accel, auto, nightly)
	}
	if nightly < 0.5 {
		t.Errorf("nightly regime too accurate (%v); the staleness story is gone", nightly)
	}
}

func TestDataPathReportShape(t *testing.T) {
	r := DataPathReport()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row[3] != "YES" {
			t.Errorf("row %d: host stream not intact", i)
		}
	}
	kept := r.Raw["keptUp"]
	// 1GbE on wide rows is easy; the 1-column 10GbE case must overwhelm a
	// single Binner (PCIe at 2 GB/s also does — the memory really is the
	// bottleneck, §6.1).
	if kept[0] != 1 {
		t.Error("1GbE on wide rows should keep up")
	}
	if kept[3] != 0 {
		t.Error("1-column at 10GbE should overwhelm a single binner")
	}
	if need := r.Raw["replicasNeeded"]; len(need) == 0 || need[len(need)-1] < 2 {
		t.Errorf("replica sizing missing or trivial: %v", need)
	}
}

func TestAblationCacheShape(t *testing.T) {
	r := AblationCache()
	anti, cnst, stalls := r.Raw["anti"], r.Raw["const"], r.Raw["stalls"]
	// The anti-cache stream is flat across cache sizes.
	for i := 1; i < len(anti); i++ {
		if math.Abs(anti[i]-anti[0])/anti[0] > 0.02 {
			t.Errorf("anti-cache rate varies with cache size: %v", anti)
			break
		}
	}
	// With no cache the constant stream stalls; with the full cache it
	// runs at the best-case rate and stalls disappear.
	if stalls[0] == 0 {
		t.Error("disabled cache shows no RAW stalls on constant stream")
	}
	last := len(cnst) - 1
	if stalls[last] != 0 {
		t.Errorf("full cache still stalls: %v", stalls[last])
	}
	if cnst[last] < 4*cnst[0] {
		t.Errorf("cache speedup on constant stream only %.1fx", cnst[last]/cnst[0])
	}
}

func TestAblationScaleUpShape(t *testing.T) {
	r := AblationScaleUp()
	rate, gbps := r.Raw["rate"], r.Raw["gbps"]
	for i := 1; i < len(rate); i++ {
		if rate[i] <= rate[i-1] {
			t.Errorf("replication did not scale: %v", rate)
			break
		}
	}
	// 16 worst-case replicas reach 10 Gbps; 8 do not.
	if gbps[len(gbps)-1] < 10 {
		t.Errorf("16 replicas reach only %.1f Gbps", gbps[len(gbps)-1])
	}
	if gbps[3] >= 10 {
		t.Errorf("8 replicas already reach %.1f Gbps (model too optimistic)", gbps[3])
	}
}

func TestAblationRegionsShape(t *testing.T) {
	r := AblationRegions()
	total, overlap := r.Raw["total"], r.Raw["overlap"]
	if overlap[0] != 0 {
		t.Errorf("one region shows overlap %v", overlap[0])
	}
	if total[1] >= total[0] {
		t.Errorf("two regions (%.3fs) not faster than one (%.3fs)", total[1], total[0])
	}
	if total[2] > total[1]*1.001 {
		t.Errorf("three regions slower than two: %v", total)
	}
}

func TestAblationMemoryShape(t *testing.T) {
	r := AblationMemory()
	rate := r.Raw["rate"]
	// Doubling memory doubles throughput while memory is the bottleneck.
	if math.Abs(rate[1]/rate[0]-2) > 0.1 {
		t.Errorf("80M ops not ~2x of 40M: %v", rate[:2])
	}
	// Unbounded memory saturates at the pipeline's 75M/s.
	last := rate[len(rate)-1]
	if math.Abs(last-75e6)/75e6 > 0.03 {
		t.Errorf("saturation rate = %.1fM/s, want 75", last/1e6)
	}
	for i := 1; i < len(rate); i++ {
		if rate[i] < rate[i-1] {
			t.Errorf("rate decreased with faster memory: %v", rate)
		}
	}
}

func TestAblationDivisorShape(t *testing.T) {
	r := AblationDivisor()
	delta, hist, errs := r.Raw["delta"], r.Raw["hist"], r.Raw["err"]
	for i := 1; i < len(delta); i++ {
		if delta[i] >= delta[i-1] {
			t.Errorf("Δ did not shrink with divisor: %v", delta)
		}
		if hist[i] >= hist[i-1] {
			t.Errorf("histogram phase did not shrink with divisor: %v", hist)
		}
	}
	// Accuracy degrades end to end (not necessarily strictly per step).
	if errs[len(errs)-1] <= errs[0] {
		t.Errorf("coarsest divisor not less accurate: %v", errs)
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real multi-million-row joins")
	}
	cfg := DefaultFig1Config()
	cfg.LineitemRows = 600_000 // lighter replica for CI
	cfg.SpikeRows = 3_000
	r := Fig1(cfg)
	stale, fresh, slow := r.Raw["stale"], r.Raw["fresh"], r.Raw["slowdown"]
	for i := range slow {
		if slow[i] <= 1 {
			t.Errorf("x point %d: no slowdown from stale stats (%.2fx)", i, slow[i])
		}
	}
	// Stale times grow with x; the gap widens (Fig 1's amplification).
	if stale[len(stale)-1] <= stale[0] {
		t.Errorf("stale join time did not grow with x: %v", stale)
	}
	if slow[len(slow)-1] <= slow[0] {
		t.Errorf("slowdown did not amplify with x: %v", slow)
	}
	// The stale estimate is orders of magnitude below the truth.
	if r.Raw["staleEstimate"][0]*100 > r.Raw["actualOuter"][0] {
		t.Errorf("stale estimate %.1f not far below actual %v",
			r.Raw["staleEstimate"][0], r.Raw["actualOuter"][0])
	}
	_ = fresh
}

func TestFig21Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real joins and 40 ANALYZE trials")
	}
	cfg := DefaultFig21Config()
	r := Fig21(cfg)
	nlj, smj := r.Raw["nlj"], r.Raw["smj"]
	for i := range nlj {
		if nlj[i] <= smj[i] {
			t.Errorf("join size %d: NLJ (%.4fs) not slower than SMJ (%.4fs)", i, nlj[i], smj[i])
		}
	}
	if nlj[len(nlj)-1] <= nlj[0] {
		t.Errorf("NLJ time did not grow with join size: %v", nlj)
	}
	// The oscillation is genuinely probabilistic: neither always-detected
	// nor never-detected.
	picks, trials := r.Raw["nljPicks"][0], r.Raw["trials"][0]
	if picks < trials*0.1 || picks > trials*0.9 {
		t.Errorf("oscillation degenerate: NLJ picked %v/%v times", picks, trials)
	}
}

func TestVarietyReport(t *testing.T) {
	r := Variety()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	fpga := r.Rows[4]
	for i := 1; i < len(fpga); i++ {
		if fpga[i] != "yes" {
			t.Errorf("accelerator should provide everything: %v", fpga)
		}
	}
}

func TestParallelPathShape(t *testing.T) {
	r := ParallelPath()
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The §7 regime: a small-domain column must scale with lanes — at
	// least 2x merged throughput at 4 lanes (the acceptance bar), and
	// monotonically increasing overall.
	quantity := r.Raw["l_quantity/speedup"]
	if quantity[2] < 2 {
		t.Errorf("l_quantity speedup at 4 lanes = %.2fx, want >= 2x", quantity[2])
	}
	for i := 1; i < len(quantity); i++ {
		if quantity[i] <= quantity[i-1] {
			t.Errorf("l_quantity speedup not monotonic: %v", quantity)
			break
		}
	}
	// The divergence regime: a wide sparse domain pays an aggregation pass
	// larger than the binning work, so lanes cannot reach 2x.
	price := r.Raw["l_extendedprice/speedup"]
	for _, s := range price {
		if s >= 2 {
			t.Errorf("l_extendedprice speedup %v should stay below 2x (aggregation-dominated)", price)
			break
		}
	}
}
