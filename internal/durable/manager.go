// Package durable is the crash-safe persistence layer for the statistics
// catalog: the histograms and sketches a served scan installs as a side
// effect survive kill -9 and come back byte-identical.
//
// The design is a classic checkpoint + write-ahead log pair, with every
// byte on disk checksummed (CRC32C, the same polynomial the page path
// uses):
//
//   - Full snapshots hold the catalog image (dbms v2 encoding, which reuses
//     the hist v2 and sketch "SK" serializations) plus the in-flight scan
//     journal, written atomically: tmp file → fsync → demote the old
//     snapshot to .prev → rename into place → fsync the directory.
//   - An append-only WAL records every catalog mutation (and scan-journal
//     event) between snapshots. Appends are asynchronous — a bounded queue
//     feeds a single writer goroutine that group-commits with fsync
//     whenever the queue runs dry — so the scan path never waits on disk.
//     A full queue drops the record rather than stalling; the dense
//     mutation sequence number carried by catalog records turns any drop
//     into a detectable gap, and recovery truncates its replay at the first
//     gap or bad checksum. The recovered catalog is therefore always a
//     prefix of the true mutation history: stale is possible (and counted),
//     corrupt or reordered is not. There is no third outcome.
//   - Checkpoints rotate the WAL to a fresh segment, capture the live
//     state, verify the written snapshot by reading it back, and only then
//     delete segments the previous snapshot no longer needs. A checkpoint
//     that fails verification (e.g. the snap.corrupt fault point) leaves
//     the old snapshot chain and every segment intact.
//
// Opening a directory performs recovery — newest valid snapshot, then WAL
// replay, truncating at the first bad record — and immediately writes a
// fresh snapshot of the recovered state, so each process starts from a
// clean baseline and the truncation decision becomes permanent.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/dbms"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
)

// Options configures a Manager. The zero value is usable: defaults below.
type Options struct {
	// CheckpointInterval is the background checkpointer's period. 0 means
	// the 30s default; negative disables timed checkpoints (threshold and
	// manual checkpoints still run).
	CheckpointInterval time.Duration
	// Faults wires the disk fault points (wal.torn, wal.fsync,
	// snap.corrupt, disk.slow). Nil never fires.
	Faults *faults.Injector
	// Reg registers the durability metrics. Nil registers nothing.
	Reg *obs.Registry

	// WAL tuning: each setting has one right value, and only this package's
	// benchmarks change it.
	//
	// walSoftLimit triggers a checkpoint once the current WAL epoch exceeds
	// this many bytes. 0 means 4 MiB; negative disables the threshold.
	walSoftLimit int64
	// queueDepth bounds the async WAL queue. 0 means 1024. When the queue is
	// full, records are dropped (and counted) rather than blocking the scan
	// path; the next checkpoint re-baselines the lost suffix.
	queueDepth int
	// fsyncInterval caps group-commit frequency: the writer fsyncs when the
	// queue runs dry, but at most once per interval (a timer covers the
	// tail). 0 means 5ms; negative restores an fsync at every queue-dry
	// boundary. Records are durable within one interval of being written;
	// explicit Sync/Checkpoint always flush.
	fsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 30 * time.Second
	}
	if o.walSoftLimit == 0 {
		o.walSoftLimit = 4 << 20
	}
	if o.queueDepth <= 0 {
		o.queueDepth = 1024
	}
	if o.fsyncInterval == 0 {
		o.fsyncInterval = 5 * time.Millisecond
	}
	return o
}

// RecoveryReport describes what Open (or Inspect) reconstructed from disk.
type RecoveryReport struct {
	// SnapshotLoaded is true when a snapshot seeded the catalog;
	// SnapshotFallback when it was the .prev file because the current one
	// was missing or corrupt; SnapshotCorrupt when at least one snapshot
	// file existed but failed checksum/structural validation.
	SnapshotLoaded   bool
	SnapshotFallback bool
	SnapshotCorrupt  bool
	// BaseLSN/BaseSeq are the snapshot's fold points (zero without one).
	BaseLSN uint64
	BaseSeq uint64
	// SegmentsScanned / BytesScanned / RecordsReplayed describe the WAL
	// walk; MutationsApplied counts the put/bump records actually applied
	// on top of the snapshot.
	SegmentsScanned  int
	BytesScanned     int64
	RecordsReplayed  int
	MutationsApplied int
	// Truncated is true when replay stopped early at a torn/corrupt
	// record or a mutation-sequence gap: the recovered catalog is a
	// proper prefix of the journaled history.
	Truncated bool
	// Lossy mirrors the snapshot's lossy flag: the WAL epoch before the
	// snapshot dropped records under backpressure.
	Lossy bool
	// OpenScans are in-flight scans recovered from the journal — scans a
	// client may come back to resume.
	OpenScans []ScanState
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// durMetrics is the durability instrumentation (nil registry → nil
// instruments, every update a pointer check).
type durMetrics struct {
	records       *obs.Counter
	bytes         *obs.Counter
	fsyncs        *obs.Counter
	fsyncsSkipped *obs.Counter
	tornWrites    *obs.Counter
	drops         *obs.Counter
	checkpoints   *obs.Counter
	ckptFailures  *obs.Counter
	ckptSeconds   *obs.Distribution
	ckptBytes     *obs.Gauge

	recoverySeconds  *obs.Gauge
	recoveryReplayed *obs.Gauge
	recoveredScans   *obs.Gauge
}

func newDurMetrics(reg *obs.Registry) durMetrics {
	return durMetrics{
		records:       reg.Counter("streamhist_durable_wal_records_total", "Records appended to the write-ahead log."),
		bytes:         reg.Counter("streamhist_durable_wal_bytes_total", "Bytes appended to the write-ahead log."),
		fsyncs:        reg.Counter("streamhist_durable_wal_fsyncs_total", "Group-commit fsync barriers issued on the WAL."),
		fsyncsSkipped: reg.Counter("streamhist_durable_wal_fsyncs_skipped_total", "WAL fsync barriers suppressed by the wal.fsync fault point."),
		tornWrites:    reg.Counter("streamhist_durable_wal_torn_total", "WAL appends torn mid-record by the wal.torn fault point."),
		drops:         reg.Counter("streamhist_durable_wal_dropped_total", "WAL records dropped under backpressure or behind a torn/broken segment tail."),
		checkpoints:   reg.Counter("streamhist_durable_checkpoints_total", "Snapshots successfully written, verified, and installed."),
		ckptFailures:  reg.Counter("streamhist_durable_checkpoint_failures_total", "Checkpoint attempts abandoned on write error or failed read-back verification."),
		ckptSeconds:   reg.Distribution("streamhist_durable_checkpoint_duration_seconds", "Wall-clock duration of checkpoints.", 1e-9),
		ckptBytes:     reg.Gauge("streamhist_durable_checkpoint_bytes", "Encoded size of the most recent snapshot."),

		recoverySeconds:  reg.Gauge("streamhist_durable_recovery_nanoseconds", "Wall-clock time Open spent recovering state from disk."),
		recoveryReplayed: reg.Gauge("streamhist_durable_recovery_replayed_records", "WAL records replayed by the most recent recovery."),
		recoveredScans:   reg.Gauge("streamhist_durable_recovered_scans", "In-flight scans recovered from the journal, awaiting client resume."),
	}
}

// Manager owns one durability directory: the recovered catalog, the WAL
// writer, and the background checkpointer. It implements
// dbms.CatalogJournal, so attaching it to a catalog (Open does this) routes
// every mutation through the WAL in apply order.
type Manager struct {
	dir  string
	opts Options
	cat  *dbms.Catalog
	rep  RecoveryReport
	met  durMetrics

	lsn    atomic.Uint64 // global log sequence, all record types
	mutSeq atomic.Uint64 // dense catalog-mutation sequence (put/bump only)
	scanID atomic.Uint64 // scan-journal identifiers

	ch         chan walMsg
	stopWriter chan struct{}
	killWriter chan struct{}
	writerDone chan struct{}

	ckptPoke chan struct{}
	ckptReq  chan chan error
	ckptStop chan struct{}
	ckptDone chan struct{}

	epochBytes atomic.Int64 // WAL bytes since the last rotation
	dropped    atomic.Int64
	lossyEpoch atomic.Bool
	// lastCkpt is the wall-clock instant of the last verified checkpoint
	// (unix nanoseconds; 0 until the first one lands). It backs the
	// checkpoint-age gauge the timeline's anomaly engine watches.
	lastCkpt atomic.Int64

	scanMu    sync.Mutex
	openScans map[uint64]*ScanState
	recovered map[uint64]*ScanState // recovered, not yet adopted or restarted

	ckptMu      sync.Mutex // serializes checkpoints
	prevCkptSeq uint64     // segment opened by the previous checkpoint's rotation

	closeOnce sync.Once
}

// Open recovers the durable state under dir (creating it if needed),
// attaches the manager as the recovered catalog's journal, starts the WAL
// writer and the background checkpointer, and writes a fresh baseline
// snapshot of the recovered state.
func Open(dir string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cat, rep, pos, err := recoverDir(dir)
	if err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)

	m := &Manager{
		dir:        dir,
		opts:       opts,
		cat:        cat,
		rep:        rep,
		met:        newDurMetrics(opts.Reg),
		ch:         make(chan walMsg, opts.queueDepth),
		stopWriter: make(chan struct{}),
		killWriter: make(chan struct{}),
		writerDone: make(chan struct{}),
		ckptPoke:   make(chan struct{}, 1),
		ckptReq:    make(chan chan error),
		ckptStop:   make(chan struct{}),
		ckptDone:   make(chan struct{}),
		openScans:  make(map[uint64]*ScanState),
		recovered:  make(map[uint64]*ScanState),
	}
	m.lsn.Store(pos.maxLSN)
	m.mutSeq.Store(pos.maxSeq)
	m.scanID.Store(pos.maxScanID)
	for i := range rep.OpenScans {
		sc := rep.OpenScans[i]
		m.openScans[sc.ID] = &sc
		cp := sc
		m.recovered[sc.ID] = &cp
	}
	m.met.recoverySeconds.Set(int64(rep.Elapsed))
	m.met.recoveryReplayed.Set(int64(rep.RecordsReplayed))
	m.met.recoveredScans.Set(int64(len(m.recovered)))

	seg := pos.maxSegSeq + 1
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seg)),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	go m.runWriter(f, seg)
	m.prevCkptSeq = seg

	// Baseline the recovered state immediately: the replay-truncation
	// decision becomes permanent, every pre-existing segment becomes
	// garbage, and the new epoch starts clean.
	if err := m.checkpoint(); err != nil && !errors.Is(err, errSnapshotUnverified) {
		m.Abandon()
		return nil, fmt.Errorf("durable: baseline checkpoint: %w", err)
	}

	cat.SetJournal(m)
	m.registerDerivedGauges(opts.Reg)
	go m.runCheckpointer()
	return m, nil
}

// registerDerivedGauges exports the durability internals the timeline's
// anomaly detectors watch: live queue pressure, loss, segment growth, and
// checkpoint staleness. These are computed gauges over the manager's own
// state — re-registration on reopen replaces the functions, so a restarted
// manager re-wires cleanly.
func (m *Manager) registerDerivedGauges(reg *obs.Registry) {
	reg.GaugeFunc("streamhist_durable_wal_queue_depth",
		"WAL records currently waiting in the writer queue.",
		func() float64 { return float64(len(m.ch)) })
	reg.GaugeFunc("streamhist_durable_wal_dropped_records",
		"WAL records dropped since open (gauge view of the drop counter, for dashboards that difference gauges).",
		func() float64 { return float64(m.dropped.Load()) })
	reg.GaugeFunc("streamhist_durable_wal_segment_bytes",
		"WAL bytes appended since the last segment rotation.",
		func() float64 { return float64(m.epochBytes.Load()) })
	reg.GaugeFunc("streamhist_durable_checkpoint_age_seconds",
		"Seconds since the last verified checkpoint (-1 until the first lands).",
		func() float64 {
			t := m.lastCkpt.Load()
			if t == 0 {
				return -1
			}
			return time.Since(time.Unix(0, t)).Seconds()
		})
}

// Catalog returns the recovered (and henceforth journaled) catalog.
func (m *Manager) Catalog() *dbms.Catalog { return m.cat }

// Report returns what recovery reconstructed when this manager opened.
func (m *Manager) Report() RecoveryReport { return m.rep }

// Dropped returns how many WAL records have been dropped (backpressure,
// torn or broken segment tails) since open.
func (m *Manager) Dropped() int64 {
	if m == nil {
		return 0
	}
	return m.dropped.Load()
}

func (m *Manager) noteDrop() {
	m.dropped.Add(1)
	m.lossyEpoch.Store(true)
	m.met.drops.Inc()
}

// enqueue hands a record to the writer without ever blocking the caller.
func (m *Manager) enqueue(rec Record) {
	select {
	case m.ch <- walMsg{kind: mkRecord, rec: rec}:
	default:
		m.noteDrop()
	}
}

// control sends a blocking control message and waits for the writer.
func (m *Manager) control(kind uint8) (walAck, error) {
	ack := make(chan walAck, 1)
	select {
	case m.ch <- walMsg{kind: kind, ack: ack}:
	case <-m.writerDone:
		return walAck{}, errors.New("durable: writer stopped")
	}
	select {
	case a := <-ack:
		return a, a.err
	case <-m.writerDone:
		return walAck{}, errors.New("durable: writer stopped")
	}
}

// JournalPut implements dbms.CatalogJournal. Called under the catalog's
// write lock, so sequence numbers are assigned in exactly apply order.
func (m *Manager) JournalPut(table, column string, s *dbms.ColumnStats) {
	stats, err := dbms.AppendColumnStats(nil, s)
	if err != nil {
		m.noteDrop()
		return
	}
	m.enqueue(Record{
		Type:   RecPut,
		LSN:    m.lsn.Add(1),
		Seq:    m.mutSeq.Add(1),
		Table:  table,
		Column: column,
		Stats:  stats,
	})
}

// JournalBump implements dbms.CatalogJournal.
func (m *Manager) JournalBump(table string, version uint64) {
	m.enqueue(Record{
		Type:    RecBump,
		LSN:     m.lsn.Add(1),
		Seq:     m.mutSeq.Add(1),
		Table:   table,
		Version: version,
	})
}

// ScanStarted journals the start of a served scan and returns its journal
// ID. Nil-safe: a nil manager returns 0 and records nothing.
func (m *Manager) ScanStarted(table, column string, startPage uint32) uint64 {
	if m == nil {
		return 0
	}
	id := m.scanID.Add(1)
	st := &ScanState{ID: id, Table: table, Column: column, Start: startPage, Pages: startPage}
	m.scanMu.Lock()
	m.openScans[id] = st
	m.scanMu.Unlock()
	m.enqueue(Record{Type: RecScanStart, LSN: m.lsn.Add(1), ScanID: id, Pages: startPage, Table: table, Column: column})
	return id
}

// ScanProgress advances a scan's delivered-pages high-water mark (called at
// frame granularity). Nil-safe.
func (m *Manager) ScanProgress(id uint64, pages uint32) {
	if m == nil || id == 0 {
		return
	}
	m.scanMu.Lock()
	if st, ok := m.openScans[id]; ok && pages > st.Pages {
		st.Pages = pages
	}
	m.scanMu.Unlock()
	m.enqueue(Record{Type: RecScanProgress, LSN: m.lsn.Add(1), ScanID: id, Pages: pages})
}

// ScanEnded closes a scan's journal entry. Nil-safe.
func (m *Manager) ScanEnded(id uint64, pages uint32) {
	if m == nil || id == 0 {
		return
	}
	m.scanMu.Lock()
	delete(m.openScans, id)
	m.scanMu.Unlock()
	m.enqueue(Record{Type: RecScanEnd, LSN: m.lsn.Add(1), ScanID: id, Pages: pages})
}

// AdoptRecovered claims the recovered in-flight scan for table.column, if
// one exists: the restarted server matches an incoming resume offset to the
// journal entry a dead process left behind. The entry is consumed (and its
// journal record closed). Nil-safe.
func (m *Manager) AdoptRecovered(table, column string) (ScanState, bool) {
	if m == nil {
		return ScanState{}, false
	}
	m.scanMu.Lock()
	var found *ScanState
	for id, st := range m.recovered {
		if st.Table == table && st.Column == column {
			found = st
			delete(m.recovered, id)
			delete(m.openScans, id)
			break
		}
	}
	n := len(m.recovered)
	m.scanMu.Unlock()
	if found == nil {
		return ScanState{}, false
	}
	m.met.recoveredScans.Set(int64(n))
	m.enqueue(Record{Type: RecScanEnd, LSN: m.lsn.Add(1), ScanID: found.ID, Pages: found.Pages})
	return *found, true
}

// RecoveredScans lists the recovered in-flight scans not yet adopted.
func (m *Manager) RecoveredScans() []ScanState {
	if m == nil {
		return nil
	}
	m.scanMu.Lock()
	defer m.scanMu.Unlock()
	out := make([]ScanState, 0, len(m.recovered))
	for _, st := range m.recovered {
		out = append(out, *st)
	}
	return out
}

// Sync blocks until every record enqueued before the call is durably on
// disk (modulo an injected wal.fsync suppression). Nil-safe.
func (m *Manager) Sync() error {
	if m == nil {
		return nil
	}
	_, err := m.control(mkSync)
	return err
}

// errSnapshotUnverified marks a checkpoint whose written snapshot failed
// read-back verification (e.g. the snap.corrupt fault point fired). The old
// snapshot chain and all WAL segments were left intact.
var errSnapshotUnverified = errors.New("durable: snapshot failed read-back verification")

// Checkpoint captures the live state into a snapshot now. Nil-safe.
func (m *Manager) Checkpoint() error {
	if m == nil {
		return nil
	}
	errc := make(chan error, 1)
	select {
	case m.ckptReq <- errc:
		return <-errc
	case <-m.ckptDone:
		// Checkpointer stopped (closing); run inline.
		return m.checkpoint()
	}
}

// checkpoint is the actual capture: rotate the WAL, snapshot the live
// state, verify the snapshot by reading it back, then GC segments the
// previous snapshot no longer needs. Serialized by ckptMu; runs on the
// checkpointer goroutine (or the closer), never on the scan path.
func (m *Manager) checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	start := time.Now()

	ack, err := m.control(mkRotate)
	if err != nil {
		m.met.ckptFailures.Inc()
		return err
	}
	// Watermarks first, state second: everything with lsn ≤ base /
	// seq ≤ baseSeq finished mutating the in-memory catalog before the
	// reads below, so the encoded image folds it. Records above the
	// watermarks replay idempotently on top.
	base := ack.lastLSN
	baseSeq := m.mutSeq.Load()
	lossy := m.lossyEpoch.Load()
	img, err := m.cat.MarshalBinary()
	if err != nil {
		m.met.ckptFailures.Inc()
		return err
	}
	m.scanMu.Lock()
	scans := make([]ScanState, 0, len(m.openScans))
	for _, st := range m.openScans {
		scans = append(scans, *st)
	}
	m.scanMu.Unlock()
	sortScans(scans)

	enc := EncodeSnapshot(&Snapshot{
		BaseLSN: base,
		BaseSeq: baseSeq,
		Lossy:   lossy,
		Catalog: img,
		Scans:   scans,
	})
	inj := m.opts.Faults
	if inj.Should(faults.SnapCorrupt) {
		enc[inj.Intn(faults.SnapCorrupt, int64(len(enc)))] ^= 0x40
	}
	if inj.Should(faults.DiskSlow) {
		time.Sleep(time.Duration(1+inj.Intn(faults.DiskSlow, 10)) * time.Millisecond)
	}
	if err := writeSnapshotFile(m.dir, enc); err != nil {
		m.met.ckptFailures.Inc()
		return err
	}
	// Read-back verification: only a snapshot that provably decodes may
	// authorize deleting the history that predates it. A corrupted write
	// (snap.corrupt) is caught here; recovery would fall back to .prev.
	back, err := os.ReadFile(filepath.Join(m.dir, snapName))
	if err == nil {
		_, err = DecodeSnapshot(back)
	}
	if err != nil {
		m.met.ckptFailures.Inc()
		return fmt.Errorf("%w: %v", errSnapshotUnverified, err)
	}

	// The epoch whose drops this snapshot healed is sealed; new drops
	// (necessarily after the baseSeq watermark) re-mark it.
	if lossy {
		m.lossyEpoch.Store(false)
	}
	// GC: the .prev snapshot needs records after its own base, all of
	// which live in segments ≥ the segment its checkpoint rotated to.
	if m.prevCkptSeq > 0 {
		if seqs, err := listSegments(m.dir); err == nil {
			for _, s := range seqs {
				if s < m.prevCkptSeq {
					os.Remove(filepath.Join(m.dir, segmentName(s)))
				}
			}
		}
	}
	m.prevCkptSeq = ack.seq
	m.lastCkpt.Store(time.Now().UnixNano())
	m.met.checkpoints.Inc()
	m.met.ckptBytes.Set(int64(len(enc)))
	m.met.ckptSeconds.Observe(int64(time.Since(start)))
	return nil
}

// runCheckpointer fires checkpoints on the configured interval, on WAL
// soft-limit pokes from the writer, and on manual requests. One at a time;
// a slow checkpoint simply delays the next trigger (the writer keeps
// appending to the already-rotated segment, so the scan path never stalls).
func (m *Manager) runCheckpointer() {
	defer close(m.ckptDone)
	var tick <-chan time.Time
	if m.opts.CheckpointInterval > 0 {
		t := time.NewTicker(m.opts.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-m.ckptStop:
			return
		case <-tick:
			m.checkpoint() //nolint:errcheck // counted in ckptFailures
		case <-m.ckptPoke:
			m.checkpoint() //nolint:errcheck
		case errc := <-m.ckptReq:
			errc <- m.checkpoint()
		}
	}
}

// Close stops the checkpointer, captures a final snapshot, flushes the WAL,
// and releases the files. Safe to call once the server has quiesced;
// nil-safe.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	var err error
	m.closeOnce.Do(func() {
		close(m.ckptStop)
		<-m.ckptDone
		err = m.checkpoint()
		if errors.Is(err, errSnapshotUnverified) {
			err = nil // chain + WAL intact; recovery falls back
		}
		close(m.stopWriter)
		<-m.writerDone
	})
	return err
}

// Abandon simulates a crash for tests: the writer exits immediately without
// flushing its queue and the files close mid-state, leaving the directory
// exactly as a kill -9 would. The manager is unusable afterwards.
func (m *Manager) Abandon() {
	if m == nil {
		return
	}
	m.closeOnce.Do(func() {
		close(m.ckptStop)
		<-m.ckptDone
		close(m.killWriter)
		<-m.writerDone
	})
}

func sortScans(scans []ScanState) {
	for i := 1; i < len(scans); i++ {
		for j := i; j > 0 && scans[j].ID < scans[j-1].ID; j-- {
			scans[j], scans[j-1] = scans[j-1], scans[j]
		}
	}
}

// logPosition is where recovery left the counters.
type logPosition struct {
	maxLSN    uint64
	maxSeq    uint64
	maxScanID uint64
	maxSegSeq uint64
}

// Inspect performs read-only recovery of a durability directory: what a
// restart would reconstruct, without writing anything. The process that
// owns dir must not be running.
func Inspect(dir string) (*dbms.Catalog, RecoveryReport, error) {
	start := time.Now()
	cat, rep, _, err := recoverDir(dir)
	rep.Elapsed = time.Since(start)
	return cat, rep, err
}

// loadSnapshot reads and validates the newest usable snapshot.
func loadSnapshot(dir string) (*Snapshot, RecoveryReport) {
	var rep RecoveryReport
	for i, name := range []string{snapName, snapPrevName} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err == nil {
			var snap *Snapshot
			if snap, err = DecodeSnapshot(buf); err == nil {
				// The snapshot frame verifies; the catalog image inside
				// it is validated by the caller.
				rep.SnapshotLoaded = true
				rep.SnapshotFallback = i > 0
				rep.BaseLSN = snap.BaseLSN
				rep.BaseSeq = snap.BaseSeq
				rep.Lossy = snap.Lossy
				return snap, rep
			}
		}
		rep.SnapshotCorrupt = true
	}
	return nil, rep
}

// recoverDir rebuilds the catalog and scan journal from dir: newest valid
// snapshot, then WAL replay in segment order, truncating at the first bad
// checksum or mutation-sequence gap.
func recoverDir(dir string) (*dbms.Catalog, RecoveryReport, logPosition, error) {
	var pos logPosition
	cat := dbms.NewCatalog()
	snap, rep := loadSnapshot(dir)
	if snap != nil {
		if err := cat.UnmarshalBinary(snap.Catalog); err != nil {
			// The frame checksum passed but the image doesn't decode:
			// treat like a corrupt snapshot and start empty (the WAL
			// below may still replay onto the empty catalog, gated by
			// the sequence check, so nothing reordered can load).
			rep = RecoveryReport{SnapshotCorrupt: true}
			snap = nil
			cat = dbms.NewCatalog()
		}
	}

	scans := make(map[uint64]*ScanState)
	if snap != nil {
		for _, sc := range snap.Scans {
			cp := sc
			scans[sc.ID] = &cp
			if sc.ID > pos.maxScanID {
				pos.maxScanID = sc.ID
			}
		}
		pos.maxLSN = snap.BaseLSN
		pos.maxSeq = snap.BaseSeq
	}
	baseLSN := pos.maxLSN
	expected := pos.maxSeq + 1
	halted := false

	seqs, err := listSegments(dir)
	if err != nil {
		return nil, rep, pos, err
	}
	for _, segSeq := range seqs {
		if segSeq > pos.maxSegSeq {
			pos.maxSegSeq = segSeq
		}
		data, err := os.ReadFile(filepath.Join(dir, segmentName(segSeq)))
		if err != nil {
			return nil, rep, pos, err
		}
		rep.SegmentsScanned++
		rep.BytesScanned += int64(len(data))
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				// Torn or corrupt tail: everything behind it in this
				// segment was never written (the writer drops behind a
				// tear), so truncate here and continue with the next
				// segment. If the tear swallowed a catalog mutation,
				// the sequence gap below halts catalog replay.
				rep.Truncated = true
				break
			}
			off += n
			rep.RecordsReplayed++
			if rec.LSN > pos.maxLSN {
				pos.maxLSN = rec.LSN
			}
			switch rec.Type {
			case RecPut, RecBump:
				if rec.Seq > pos.maxSeq {
					pos.maxSeq = rec.Seq
				}
				if halted || rec.Seq < expected {
					continue // already folded in the snapshot
				}
				if rec.Seq > expected {
					// A mutation was lost (dropped under backpressure,
					// torn away): applying anything after the gap
					// would fabricate a history that never existed.
					halted = true
					rep.Truncated = true
					continue
				}
				if rec.Type == RecPut {
					s, rest, err := dbms.DecodeColumnStats(rec.Stats)
					if err != nil || len(rest) != 0 {
						halted = true
						rep.Truncated = true
						continue
					}
					cat.RestorePut(rec.Table, rec.Column, s)
				} else {
					cat.RestoreVersion(rec.Table, rec.Version)
				}
				expected++
				rep.MutationsApplied++
			case RecScanStart:
				if rec.LSN <= baseLSN {
					continue
				}
				if _, ok := scans[rec.ScanID]; !ok {
					scans[rec.ScanID] = &ScanState{
						ID: rec.ScanID, Table: rec.Table, Column: rec.Column,
						Start: rec.Pages, Pages: rec.Pages,
					}
				}
			case RecScanProgress:
				if rec.LSN <= baseLSN {
					continue
				}
				if st, ok := scans[rec.ScanID]; ok && rec.Pages > st.Pages {
					st.Pages = rec.Pages
				}
			case RecScanEnd:
				if rec.LSN <= baseLSN {
					continue
				}
				delete(scans, rec.ScanID)
			}
			if rec.ScanID > pos.maxScanID {
				pos.maxScanID = rec.ScanID
			}
		}
	}

	rep.OpenScans = make([]ScanState, 0, len(scans))
	for _, st := range scans {
		rep.OpenScans = append(rep.OpenScans, *st)
	}
	sortScans(rep.OpenScans)
	return cat, rep, pos, nil
}
