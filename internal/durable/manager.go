// Package durable is the crash-safe persistence layer for the statistics
// catalog: the histograms and sketches a served scan installs as a side
// effect survive kill -9 and come back byte-identical.
//
// Everything on disk is WAL records, every byte checksummed (CRC32C, the
// same polynomial the page path uses), and a put carries the bytes
// dbms.Catalog.Put encoded at install: nothing here encodes statistics.
//
//   - An append-only WAL records every catalog mutation (and scan-journal
//     event). Appends are asynchronous — a bounded queue feeds a single
//     writer goroutine that group-commits with fsync whenever the queue
//     runs dry — so the scan path never waits on disk. A full queue drops
//     the record rather than stalling; the dense mutation sequence number
//     carried by catalog records turns any drop into a detectable gap, and
//     recovery truncates its replay at the first gap or bad checksum. The
//     recovered catalog is therefore always a prefix of the true mutation
//     history: stale is possible (and counted), corrupt or reordered is
//     not. There is no third outcome.
//   - A checkpoint rotates the WAL to a fresh segment S and writes S's
//     compacted twin (checkpoint.go). Only once that file reads back does
//     it delete what is older than the previous verified checkpoint; one
//     that fails (e.g. the snap.corrupt fault point) deletes itself and
//     collects nothing, so the fallback and its segments stay.
//
// Opening a directory performs recovery — the newest checkpoint file that
// decodes completely, then WAL replay of the later segments, truncating at
// the first bad record — and immediately writes a fresh checkpoint of the
// recovered state, so each process starts from a clean baseline and the
// truncation decision becomes permanent.
package durable

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// CheckpointLoaded is true when a checkpoint file seeded the catalog;
	// CheckpointFallback when it was not the newest one because a newer
	// one failed to decode; CheckpointCorrupt when at least one checkpoint
	// file failed checksum/structural validation.
	CheckpointLoaded   bool
	CheckpointFallback bool
	CheckpointCorrupt  bool
	// RecordsReplayed counts the WAL records read after the checkpoint;
	// MutationsApplied the put/bump records among them actually applied.
	RecordsReplayed  int
	MutationsApplied int
	// Truncated is true when replay stopped early at a torn/corrupt
	// record or a mutation-sequence gap: the recovered catalog is a
	// proper prefix of the journaled history.
	Truncated bool
	// Lossy mirrors the checkpoint's lossy flag: the WAL epoch before the
	// checkpoint dropped records under backpressure.
	Lossy bool
	// OpenScans are scan-journal entries recovered without a scan-end. A
	// served scan journals nothing, so only a WAL written by an older
	// server, or a direct ScanStarted caller, leaves any.
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
		checkpoints:   reg.Counter("streamhist_durable_checkpoints_total", "Checkpoint files successfully written, verified, and installed."),
		ckptFailures:  reg.Counter("streamhist_durable_checkpoint_failures_total", "Checkpoint attempts abandoned on write error or failed read-back verification."),
		ckptSeconds:   reg.Distribution("streamhist_durable_checkpoint_duration_seconds", "Wall-clock duration of checkpoints.", 1e-9),
		ckptBytes:     reg.Gauge("streamhist_durable_checkpoint_bytes", "Encoded size of the most recent checkpoint file."),

		recoverySeconds:  reg.Gauge("streamhist_durable_recovery_nanoseconds", "Wall-clock time Open spent recovering state from disk."),
		recoveryReplayed: reg.Gauge("streamhist_durable_recovery_replayed_records", "WAL records replayed by the most recent recovery."),
		recoveredScans:   reg.Gauge("streamhist_durable_recovered_scans", "Scan-journal entries the most recent recovery found still open."),
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

	ckptMu      sync.Mutex // serializes checkpoints
	prevCkptSeq uint64     // segment of the last verified checkpoint (0: none)

	closeOnce sync.Once
}

// Open recovers the durable state under dir (creating it if needed),
// attaches the manager as the recovered catalog's journal, starts the WAL
// writer and the background checkpointer, and writes a fresh baseline
// checkpoint of the recovered state.
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
	}
	m.lsn.Store(pos.maxLSN)
	m.mutSeq.Store(pos.maxSeq)
	m.scanID.Store(pos.maxScanID)
	for i := range rep.OpenScans {
		sc := rep.OpenScans[i]
		m.openScans[sc.ID] = &sc
	}
	m.met.recoverySeconds.Set(int64(rep.Elapsed))
	m.met.recoveryReplayed.Set(int64(rep.RecordsReplayed))
	m.met.recoveredScans.Set(int64(len(rep.OpenScans)))

	seg := pos.maxSegSeq + 1
	f, err := os.OpenFile(filepath.Join(dir, seqName(segmentPrefix, seg)),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	go m.runWriter(f, seg)
	m.prevCkptSeq = pos.ckptSeq

	// Baseline the recovered state immediately: the replay-truncation
	// decision becomes permanent and the new epoch starts clean. The
	// checkpoint recovery loaded stays, with its segments, as the fallback.
	if err := m.checkpoint(); err != nil && !errors.Is(err, errCheckpointUnverified) {
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
// write lock, so sequence numbers are assigned in exactly apply order; it
// enqueues the entry's installed bytes and encodes nothing.
func (m *Manager) JournalPut(table, column string, s *dbms.ColumnStats) {
	stats := s.Encoded()
	if stats == nil {
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

// Sync blocks until every record enqueued before the call is durably on
// disk (modulo an injected wal.fsync suppression). Nil-safe.
func (m *Manager) Sync() error {
	if m == nil {
		return nil
	}
	_, err := m.control(mkSync)
	return err
}

// errCheckpointUnverified marks a checkpoint whose written file failed
// read-back verification (e.g. the snap.corrupt fault point fired). The file
// was deleted; the older checkpoints and every WAL segment were left intact.
var errCheckpointUnverified = errors.New("durable: checkpoint failed read-back verification")

// Checkpoint captures the live state into a checkpoint file now. Nil-safe.
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

// checkpoint is the actual capture: rotate the WAL to segment S, write the
// live state as S's checkpoint file, verify the file by reading it back,
// then delete what the previous verified checkpoint no longer needs.
// Serialized by ckptMu; runs on the checkpointer goroutine (or the closer),
// never on the scan path.
func (m *Manager) checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	start := time.Now()
	fail := func(err error) error {
		m.met.ckptFailures.Inc()
		return err
	}

	ack, err := m.control(mkRotate)
	if err != nil {
		return fail(err)
	}
	// Every scan record with lsn ≤ ack.lastLSN changed the in-memory
	// journal before the reads below. The mutation watermark is read under
	// the same catalog lock as the entries, so the puts and bumps written
	// are exactly the mutations with seq ≤ head.Seq; records above either
	// watermark replay on top. An entry without bytes (its encode failed
	// at Put) makes a put that does not decode: the read-back refuses it.
	head := Record{Type: RecCheckpoint, LSN: ack.lastLSN, Lossy: m.lossyEpoch.Load()}
	var recs []Record
	m.cat.Each(func() { head.Seq = m.mutSeq.Load() },
		func(table, column string, s *dbms.ColumnStats) {
			recs = append(recs, Record{Type: RecPut, Table: table, Column: column, Stats: s.Encoded()})
		},
		func(table string, version uint64) {
			recs = append(recs, Record{Type: RecBump, Table: table, Version: version})
		})
	m.scanMu.Lock()
	scans := make([]ScanState, 0, len(m.openScans))
	for _, st := range m.openScans {
		scans = append(scans, *st)
	}
	m.scanMu.Unlock()
	slices.SortFunc(scans, byID)
	for _, sc := range scans {
		recs = append(recs,
			Record{Type: RecScanStart, ScanID: sc.ID, Pages: sc.Start, Table: sc.Table, Column: sc.Column},
			Record{Type: RecScanProgress, ScanID: sc.ID, Pages: sc.Pages})
	}
	head.Count = uint32(len(recs))
	enc := AppendRecord(nil, head)
	for _, rec := range recs {
		rec.LSN, rec.Seq = head.LSN, head.Seq
		enc = AppendRecord(enc, rec)
	}

	inj := m.opts.Faults
	if inj.Should(faults.SnapCorrupt) {
		enc[inj.Intn(faults.SnapCorrupt, int64(len(enc)))] ^= 0x40
	}
	if inj.Should(faults.DiskSlow) {
		time.Sleep(time.Duration(1+inj.Intn(faults.DiskSlow, 10)) * time.Millisecond)
	}
	name := seqName(checkpointPrefix, ack.seq)
	if err := writeCheckpointFile(m.dir, name, enc); err != nil {
		return fail(err)
	}
	// Read-back verification: only a checkpoint that recovery would load
	// may authorize deleting the history that predates it. One that would
	// not (snap.corrupt) is deleted, so recovery never has to step over it.
	back, err := os.ReadFile(filepath.Join(m.dir, name))
	if err == nil {
		_, _, _, err = loadCheckpoint(back)
	}
	if err != nil {
		os.Remove(filepath.Join(m.dir, name))
		return fail(fmt.Errorf("%w: %v", errCheckpointUnverified, err))
	}

	// The epoch whose drops this checkpoint healed is sealed; new drops
	// (necessarily after the head.Seq watermark) re-mark it.
	if head.Lossy {
		m.lossyEpoch.Store(false)
	}
	// GC: the previous verified checkpoint stays as the fallback, with
	// every segment from its own onwards; everything older goes. Best
	// effort: a file left behind is collected by the next checkpoint.
	if m.prevCkptSeq > 0 {
		for _, prefix := range []string{checkpointPrefix, segmentPrefix} {
			seqs, _ := listSeqs(m.dir, prefix)
			for _, seq := range seqs {
				if seq < m.prevCkptSeq {
					os.Remove(filepath.Join(m.dir, seqName(prefix, seq)))
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

// Close stops the checkpointer, writes a final checkpoint, flushes the WAL,
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
		if errors.Is(err, errCheckpointUnverified) {
			err = nil // older checkpoints + WAL intact; recovery falls back
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

func byID(a, b ScanState) int { return cmp.Compare(a.ID, b.ID) }

// logPosition is where recovery left the counters.
type logPosition struct {
	maxLSN    uint64
	maxSeq    uint64
	maxScanID uint64
	maxSegSeq uint64 // highest segment or checkpoint sequence on disk
	ckptSeq   uint64 // the loaded checkpoint's segment (0: none)
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

// recoverDir rebuilds the catalog and scan journal from dir: the newest
// checkpoint file that decodes completely, then WAL replay of its segment
// and the later ones, truncating at the first bad checksum or
// mutation-sequence gap.
func recoverDir(dir string) (*dbms.Catalog, RecoveryReport, logPosition, error) {
	var rep RecoveryReport
	var pos logPosition
	ckpts, err := listSeqs(dir, checkpointPrefix)
	if err != nil {
		return nil, rep, pos, err
	}
	segs, err := listSeqs(dir, segmentPrefix)
	if err != nil {
		return nil, rep, pos, err
	}
	for _, seq := range append(segs, ckpts...) {
		pos.maxSegSeq = max(pos.maxSegSeq, seq)
	}

	cat, scans := dbms.NewCatalog(), make(map[uint64]*ScanState)
	for i := len(ckpts) - 1; i >= 0; i-- {
		// A file that cannot be read is as unusable as a corrupt one.
		buf, _ := os.ReadFile(filepath.Join(dir, seqName(checkpointPrefix, ckpts[i])))
		c, sc, head, err := loadCheckpoint(buf)
		if err != nil {
			rep.CheckpointCorrupt = true
			continue
		}
		cat, scans = c, sc
		rep.CheckpointLoaded = true
		rep.CheckpointFallback = i < len(ckpts)-1
		rep.Lossy = head.Lossy
		pos.maxLSN, pos.maxSeq, pos.ckptSeq = head.LSN, head.Seq, ckpts[i]
		break
	}
	for id := range scans {
		pos.maxScanID = max(pos.maxScanID, id)
	}
	baseLSN := pos.maxLSN
	expected := pos.maxSeq + 1
	halted := false

	for _, segSeq := range segs {
		if segSeq < pos.ckptSeq {
			continue // folded into the checkpoint
		}
		data, err := os.ReadFile(filepath.Join(dir, seqName(segmentPrefix, segSeq)))
		if err != nil {
			return nil, rep, pos, err
		}
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
			pos.maxLSN = max(pos.maxLSN, rec.LSN)
			pos.maxScanID = max(pos.maxScanID, rec.ScanID)
			switch rec.Type {
			case RecPut, RecBump:
				pos.maxSeq = max(pos.maxSeq, rec.Seq)
				if halted || rec.Seq < expected {
					continue // already folded in the checkpoint
				}
				if rec.Seq > expected || applyRecord(cat, scans, rec) != nil {
					// A mutation was lost (dropped under backpressure,
					// torn away) or does not decode: applying anything
					// after it would fabricate a history that never
					// existed.
					halted = true
					rep.Truncated = true
					continue
				}
				expected++
				rep.MutationsApplied++
			default:
				if rec.LSN > baseLSN {
					applyRecord(cat, scans, rec) //nolint:errcheck // scan records never fail
				}
			}
		}
	}

	rep.OpenScans = make([]ScanState, 0, len(scans))
	for _, st := range scans {
		rep.OpenScans = append(rep.OpenScans, *st)
	}
	slices.SortFunc(rep.OpenScans, byID)
	return cat, rep, pos, nil
}
