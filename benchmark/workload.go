package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/core"
	"streamhist/internal/dbms"
	"streamhist/internal/durable"
	"streamhist/internal/hist"
	"streamhist/internal/obs"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

const (
	tableName = "lineitem"
	// lanes is server.Config.ShardLanes, the only configuration the harness
	// sets: fixed so the side path's fan-out does not follow the runner's
	// core count.
	lanes = 2
	// thinkTime paces the stats reader of mixed-durable (~200 reads/s).
	thinkTime = 5 * time.Millisecond
	// scratchDir holds the durable directories and, by default, the run
	// folders; benchmark/.gitignore ignores it.
	scratchDir = "out"
)

// workload is one traffic mix. README.md records why each was chosen.
type workload struct {
	name string
	// scanCol is the column connection A's scans refresh; "" moves the
	// pages without a side path.
	scanCol string
	// statsCols are read back through Stats in rotation. Columns other
	// than scanCol are installed by one warm-up scan each.
	statsCols []string
	// durable attaches a durable.Manager with default options.
	durable bool
	// twoConns moves the Stats reads to a connection of their own, closed
	// loop with thinkTime; otherwise one Stats follows every scan on A.
	twoConns bool
}

var workloads = []workload{
	{name: "raw-move", statsCols: []string{"l_quantity"}},
	{name: "lowcard-chain", scanCol: "l_quantity", statsCols: []string{"l_quantity"}},
	{name: "widedomain", scanCol: "l_extendedprice", statsCols: []string{"l_extendedprice"}},
	{name: "mixed-durable", scanCol: "l_orderkey",
		statsCols: []string{"l_quantity", "l_orderkey", "l_discount"},
		durable:   true, twoConns: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params sizes a run. main always uses fullParams (the driver's --seconds
// replaces the window); quickParams exists for the smoke test alone.
type params struct {
	rows        int
	window      time.Duration
	segments    int
	setups      int // set-up repetitions; setup_s is their median
	warmups     int
	tracedScans int
	replayReps  int
	postScans   int // mixed-durable: scans between the last checkpoint and the crash
}

var fullParams = params{
	rows: 200_000, window: 30 * time.Second, segments: 5, setups: 3,
	warmups: 20, tracedScans: 20, replayReps: 5, postScans: 50,
}

// op is one operation issued against the server: a row of ops.csv.
type op struct {
	segment int // -1 set-up, 0..segments-1 the timed window, segments after it
	kind    string
	start   time.Time
	latency time.Duration
	bytes   int64
	ok      bool
}

// opLog is shared by the two connections of mixed-durable.
type opLog struct {
	mu  sync.Mutex
	ops []op
}

func (l *opLog) add(o op) {
	l.mu.Lock()
	l.ops = append(l.ops, o)
	l.mu.Unlock()
}

// reference is the serial statistic a served scan of one column must match.
type reference struct {
	hist   *hist.Histogram
	ndv    int64
	lo, hi int64 // the column's value range; Δ = hi-lo+1 bins at divisor 1
}

func (r *reference) numBins() int64 { return r.hi - r.lo + 1 }

// buildReference bins the column with one Binner and one Compressed(64,64)
// block, the way server.sidePath.finish does over its merged lanes.
func buildReference(rel *table.Relation, column string) (*reference, error) {
	vals := rel.ColumnByName(column)
	if len(vals) == 0 {
		return nil, fmt.Errorf("reference: column %q is empty", column)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	pre, err := core.RangeFor(lo, hi, 1)
	if err != nil {
		return nil, err
	}
	b := core.NewBinner(core.DefaultBinnerConfig(), pre)
	defer b.Release()
	b.PushAll(vals)
	vec, _ := b.Finish()
	comp := core.NewCompressedBlock(64, 64, vec.Total())
	core.NewScanner().Run(vec, comp)
	ndv := int64(vec.Cardinality())
	return &reference{
		hist: &hist.Histogram{
			Kind:          hist.Compressed,
			Buckets:       comp.Buckets(),
			Frequent:      comp.Frequent(),
			Total:         vec.Total(),
			DistinctTotal: ndv,
		},
		ndv: ndv, lo: lo, hi: hi,
	}, nil
}

// oracle holds what every reply is checked against.
type oracle struct {
	rows   uint64
	pages  uint32
	images []byte // the concatenated page.Encode images
	refs   map[string]*reference
	// cycles is the AccelCycles of the first scan of each column; every
	// later scan of that column must repeat it exactly. Connection A only.
	cycles map[string]uint64
}

func newOracle(rel *table.Relation, w workload) (*oracle, error) {
	pages := page.Encode(rel)
	or := &oracle{
		rows:   uint64(rel.NumRows()),
		pages:  uint32(len(pages)),
		images: make([]byte, 0, len(pages)*page.Size),
		refs:   make(map[string]*reference),
		cycles: make(map[string]uint64),
	}
	for _, p := range pages {
		or.images = append(or.images, p.Bytes()...)
	}
	for _, col := range w.statsCols {
		ref, err := buildReference(rel, col)
		if err != nil {
			return nil, err
		}
		or.refs[col] = ref
	}
	return or, nil
}

// scanOK applies the issue's failure rules to one scan.
func (or *oracle) scanOK(column string, sum *client.ScanSummary, err error) bool {
	if err != nil || sum == nil {
		return false
	}
	if sum.Pages != or.pages || sum.Bytes != uint64(len(or.images)) {
		return false
	}
	if column == "" {
		return true
	}
	if !sum.Refreshed || sum.Degraded || sum.Rows != or.rows {
		return false
	}
	first, seen := or.cycles[column]
	if !seen {
		or.cycles[column] = sum.AccelCycles
		return true
	}
	return sum.AccelCycles == first
}

// statsOK checks a decoded Stats reply against the serial reference: equal
// histogram, exact RowCount and NDistinct, HLL estimate within 3σ of p=12.
func (or *oracle) statsOK(column string, st *client.Stats, err error) bool {
	ref := or.refs[column]
	if err != nil || st == nil || ref == nil {
		return false
	}
	if !st.Histogram.Equal(ref.hist) || st.RowCount != int64(or.rows) || st.NDistinct != ref.ndv {
		return false
	}
	est, ok := st.Sketches.NDVEstimate()
	sigma := 1.04 / math.Sqrt(1<<12)
	return ok && math.Abs(est-float64(ref.ndv)) <= 3*sigma*float64(ref.ndv)
}

// bench is one set-up: a live server on a loopback listener, the clients
// dialled to it, and the oracle for its relation.
type bench struct {
	w   workload
	p   params
	rel *table.Relation
	or  *oracle
	log *opLog

	dir string // durable directory; "" without durability
	reg *obs.Registry
	dm  *durable.Manager

	srv     *server.Server
	addr    string
	stopSrv func()
	a, b    *client.Client

	// segmentAt maps an operation's completion time to its ops.csv segment:
	// -1 during set-up, the window's segment inside it, p.segments after.
	segmentAt func(time.Time) int
}

// setUp is the set-up the issue defines, timed by the caller: generate,
// Register, listen, dial, one verification scan, p.warmups warm-up scans.
func setUp(w workload, p params, seed uint64, log *opLog) (_ *bench, err error) {
	bn := &bench{w: w, p: p, log: log, segmentAt: func(time.Time) int { return -1 }}
	defer func() {
		if err != nil {
			bn.tearDown()
		}
	}()
	bn.rel = tpch.Lineitem(p.rows, 1, seed)
	if bn.or, err = newOracle(bn.rel, w); err != nil {
		return nil, err
	}
	cfg := server.Config{ShardLanes: lanes}
	if w.durable {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return nil, err
		}
		if bn.dir, err = os.MkdirTemp(scratchDir, "durable-*"); err != nil {
			return nil, err
		}
		// The registry is how histserved wires the manager too; the WAL
		// byte and checkpoint counters are read from it.
		bn.reg = obs.NewRegistry()
		if bn.dm, err = durable.Open(bn.dir, durable.Options{Reg: bn.reg}); err != nil {
			return nil, err
		}
		cfg.Durable = bn.dm
	}
	bn.srv = server.New(cfg)
	if err := bn.srv.Register(bn.rel); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	bn.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = bn.srv.Serve(ctx, ln) // returns ErrServerClosed once cancelled
	}()
	bn.stopSrv = func() { cancel(); <-served }

	if bn.a, err = client.Dial(bn.addr); err != nil {
		return nil, err
	}
	if w.twoConns {
		if bn.b, err = client.Dial(bn.addr); err != nil {
			return nil, err
		}
	}

	// Verification scan: the delivered bytes are the stored page images.
	var got bytes.Buffer
	got.Grow(len(bn.or.images))
	start := time.Now()
	sum, serr := bn.a.Scan(tableName, w.scanCol, &got)
	ok := bn.or.scanOK(w.scanCol, sum, serr) && bytes.Equal(got.Bytes(), bn.or.images)
	log.add(op{segment: -1, kind: "verify-scan", start: start, latency: time.Since(start), bytes: int64(got.Len()), ok: ok})

	// Warm-up: a fixed count. The first ones install the entries the
	// workload only reads; the rest are the workload's own scan.
	warm := make([]string, 0, p.warmups)
	for _, col := range w.statsCols {
		if col != w.scanCol {
			warm = append(warm, col)
		}
	}
	for len(warm) < p.warmups {
		warm = append(warm, w.scanCol)
	}
	for _, col := range warm {
		bn.scan(bn.a, "warmup-scan", col)
	}
	for _, col := range w.statsCols {
		bn.stats(bn.a, "verify-stats", col)
	}
	return bn, nil
}

// countingSink is connection A's sink: it counts the page bytes delivered.
type countingSink struct{ n int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

// scan runs one checked scan on c and logs it; it returns the latency and
// the summary (nil on error).
func (bn *bench) scan(c *client.Client, kind, column string) (time.Duration, *client.ScanSummary) {
	var sink countingSink
	start := time.Now()
	sum, err := c.Scan(tableName, column, &sink)
	lat := time.Since(start)
	bn.log.add(op{segment: bn.segmentAt(start.Add(lat)), kind: kind, start: start, latency: lat,
		bytes: sink.n, ok: bn.or.scanOK(column, sum, err)})
	return lat, sum
}

// stats runs one checked Stats read on c and logs it.
func (bn *bench) stats(c *client.Client, kind, column string) time.Duration {
	start := time.Now()
	st, err := c.Stats(tableName, column)
	lat := time.Since(start)
	bn.log.add(op{segment: bn.segmentAt(start.Add(lat)), kind: kind, start: start, latency: lat,
		ok: bn.or.statsOK(column, st, err)})
	return lat
}

// tearDown stops everything the set-up started and waits for it.
func (bn *bench) tearDown() {
	if bn.a != nil {
		bn.a.Close()
	}
	if bn.b != nil {
		bn.b.Close()
	}
	if bn.stopSrv != nil {
		bn.stopSrv()
	}
	if bn.dm != nil {
		_ = bn.dm.Close() // a no-op after Abandon; the directory goes next
	}
	if bn.dir != "" {
		os.RemoveAll(bn.dir)
	}
}

// windowResult is what the timed window measured, tracing off.
type windowResult struct {
	scanLat, statsLat []time.Duration
	segMBps           []float64
	cpu               time.Duration // user+sys over the window
	mem               runtime.MemStats
	memBefore         runtime.MemStats
	accelSeconds      float64
	accelCycles       uint64
	walBytes          int64
	checkpoints       int64
	srvBefore, srvEnd server.MetricsSnapshot
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counter reads a durability counter; 0 without a registry (nil-safe).
func (bn *bench) counter(name string) int64 { return bn.reg.Counter(name, "").Value() }

// runWindow is the closed-loop timed window: connection A scans (and, on
// the one-connection workloads, reads Stats after each scan) until the
// window ends; on mixed-durable connection B reads Stats with think time
// beside it. Segment boundaries fall on operation completions, so every
// byte and every nanosecond belongs to exactly one segment.
func (bn *bench) runWindow() windowResult {
	w, p := bn.w, bn.p
	segLen := p.window / time.Duration(p.segments)
	var res windowResult

	runtime.GC() // every window starts from a collected heap
	runtime.ReadMemStats(&res.memBefore)
	res.srvBefore = bn.srv.Metrics()
	walBefore := bn.counter("streamhist_durable_wal_bytes_total")
	ckptBefore := bn.counter("streamhist_durable_checkpoints_total")
	cpuBefore := cpuTime()
	begin := time.Now()
	end := begin.Add(p.window)
	bn.segmentAt = func(t time.Time) int {
		return max(0, min(int(t.Sub(begin)/segLen), p.segments-1))
	}

	var wg sync.WaitGroup
	var statsB []time.Duration
	if w.twoConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(end); i++ {
				statsB = append(statsB, bn.stats(bn.b, "stats", w.statsCols[i%len(w.statsCols)]))
				time.Sleep(thinkTime)
			}
		}()
	}

	// A segment runs from the last completion of the one before it to its
	// own last completion.
	segStart, segBytes, seg, last := begin, int64(0), 0, begin
	closeSegment := func() {
		if segBytes > 0 {
			res.segMBps = append(res.segMBps, float64(segBytes)/1e6/last.Sub(segStart).Seconds())
			segStart, segBytes = last, 0
		}
	}
	for time.Now().Before(end) {
		lat, sum := bn.scan(bn.a, "scan", w.scanCol)
		res.scanLat = append(res.scanLat, lat)
		if !w.twoConns {
			res.statsLat = append(res.statsLat, bn.stats(bn.a, "stats", w.statsCols[0]))
		}
		now := time.Now()
		if s := bn.segmentAt(now); s != seg {
			closeSegment()
			seg = s
		}
		if sum != nil {
			segBytes += int64(sum.Bytes)
			res.accelSeconds, res.accelCycles = sum.AccelSeconds, sum.AccelCycles
		}
		last = now
	}
	closeSegment()
	wg.Wait()
	bn.segmentAt = func(time.Time) int { return p.segments }

	res.cpu = cpuTime() - cpuBefore
	runtime.ReadMemStats(&res.mem)
	res.srvEnd = bn.srv.Metrics()
	res.walBytes = bn.counter("streamhist_durable_wal_bytes_total") - walBefore
	res.checkpoints = bn.counter("streamhist_durable_checkpoints_total") - ckptBefore
	if w.twoConns {
		res.statsLat = statsB
	}
	return res
}

// crashResult is the mixed-durable epilogue.
type crashResult struct {
	checkpoint, recover time.Duration
	dropped             int64
}

// crashAndReopen runs after the window: Checkpoint, exactly p.postScans more
// scans, Sync, Abandon (the kill -9 stand-in), durable.Open again. The
// reopened catalog must equal the live one entry for entry; the comparison
// is logged as one operation.
func (bn *bench) crashAndReopen() (crashResult, error) {
	var cr crashResult
	start := time.Now()
	if err := bn.dm.Checkpoint(); err != nil {
		return cr, fmt.Errorf("checkpoint: %w", err)
	}
	cr.checkpoint = time.Since(start)
	for i := 0; i < bn.p.postScans; i++ {
		bn.scan(bn.a, "post-scan", bn.w.scanCol)
	}
	if err := bn.dm.Sync(); err != nil {
		return cr, fmt.Errorf("sync: %w", err)
	}
	cr.dropped = bn.dm.Dropped()
	bn.dm.Abandon()

	start = time.Now()
	re, err := durable.Open(bn.dir, durable.Options{})
	cr.recover = time.Since(start)
	if err != nil {
		return cr, fmt.Errorf("reopen: %w", err)
	}
	same := sameCatalog(bn.dm.Catalog(), re.Catalog())
	bn.log.add(op{segment: bn.p.segments, kind: "verify-reopen", start: start, latency: cr.recover, ok: same})
	return cr, re.Close()
}

// sameCatalog compares two catalogs entry for entry through the encoding
// the WAL and the snapshots use.
func sameCatalog(live, reopened *dbms.Catalog) bool {
	cols := live.StatsColumns(tableName)
	other := reopened.StatsColumns(tableName)
	if len(cols) == 0 || len(cols) != len(other) || live.Version(tableName) != reopened.Version(tableName) {
		return false
	}
	for i, col := range cols {
		if other[i] != col {
			return false
		}
		a, errA := dbms.AppendColumnStats(nil, live.Get(tableName, col))
		b, errB := dbms.AppendColumnStats(nil, reopened.Get(tableName, col))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}

func median[T int64 | float64 | time.Duration](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of the samples.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb float64
			if _, err := fmt.Sscanf(string(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
