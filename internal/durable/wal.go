package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamhist/internal/faults"
)

// WAL segments are append-only files named wal-<seq>.log with a
// monotonically increasing sequence number. Rotation happens at every
// checkpoint (and at every Open), so a segment never needs in-place
// truncation: compaction is "start a new segment S, write its compacted
// twin ckpt-S.log (checkpoint.go), delete what the previous checkpoint no
// longer needs". Records carry their own framing and checksums (record.go);
// segments have no header.

const segmentPrefix = "wal-"

// seqName names the segment or checkpoint file (by prefix) of sequence seq.
func seqName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%08d.log", prefix, seq)
}

// listSeqs returns the sequence numbers of the <prefix><seq>.log files in
// dir (segments or checkpoints), sorted ascending. Files that merely look
// like them but do not parse are ignored.
func listSeqs(dir, prefix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(name[len(prefix):len(name)-len(".log")], 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Writer messages. Records are enqueued without blocking (a full queue drops
// the record and counts it — the mutation-sequence gap makes the loss safe
// at replay); control messages block until the writer acknowledges.
const (
	mkRecord uint8 = iota
	mkSync
	mkRotate
)

type walMsg struct {
	kind uint8
	rec  Record
	ack  chan walAck
}

type walAck struct {
	// lastLSN is an LSN watermark: every LSN assigned before the writer
	// built this ack is ≤ lastLSN.
	lastLSN uint64
	// seq is the current segment sequence after handling the message.
	seq uint64
	err error
}

// runWriter is the single goroutine that owns the WAL file. It drains the
// queue, encodes records, applies the disk fault points, and fsyncs at
// group-commit boundaries — whenever the queue runs dry, but at most once
// per fsyncInterval (a timer flushes the tail), so a trickle of records
// cannot turn into an fsync per record. Appending never blocks the
// enqueuing side: backpressure turns into counted drops, not stalls.
func (m *Manager) runWriter(f *os.File, seq uint64) {
	defer close(m.writerDone)
	cur := f
	curSeq := seq
	var (
		torn   bool // a torn write poisoned this segment's tail
		broken bool // a write error poisoned this segment's tail
		dirty  bool // bytes written since the last fsync
		buf    []byte
	)
	inj := m.opts.Faults

	sync := func() {
		if !dirty {
			return
		}
		dirty = false
		if inj.Should(faults.WALFsync) {
			m.met.fsyncsSkipped.Inc()
			return
		}
		if err := cur.Sync(); err == nil {
			m.met.fsyncs.Inc()
		}
	}

	// Group-commit pacing: syncSoon is called when the queue runs dry. It
	// syncs immediately if a full interval has passed since the last sync,
	// otherwise arms a timer so the tail still hits disk within one
	// interval. Explicit control messages (Sync, rotation, shutdown)
	// bypass the pacing entirely.
	window := m.opts.fsyncInterval
	var lastSync time.Time
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	syncSoon := func() {
		if !dirty {
			return
		}
		if window < 0 || time.Since(lastSync) >= window {
			sync()
			lastSync = time.Now()
			return
		}
		if !timerArmed {
			timer.Reset(window - time.Since(lastSync))
			timerArmed = true
		}
	}
	writeRecord := func(rec Record) {
		if torn || broken {
			m.noteDrop()
			return
		}
		if inj.Should(faults.DiskSlow) {
			time.Sleep(time.Duration(1+inj.Intn(faults.DiskSlow, 10)) * time.Millisecond)
		}
		buf = AppendRecord(buf[:0], rec)
		out := buf
		if inj.Should(faults.WALTorn) {
			// Write only a prefix, as if the process died inside the
			// append; everything behind it in this segment is dropped,
			// exactly like the post-crash tail it simulates.
			out = out[:1+inj.Intn(faults.WALTorn, int64(len(out)-1))]
			torn = true
			m.met.tornWrites.Inc()
		}
		n, err := cur.Write(out)
		m.epochBytes.Add(int64(n))
		if err != nil || n < len(out) {
			broken = true
			if !torn {
				m.noteDrop()
				return
			}
		}
		dirty = true
		if torn {
			m.noteDrop() // the torn record itself is a loss
			return
		}
		m.met.records.Inc()
		m.met.bytes.Add(int64(len(out)))
		if m.opts.walSoftLimit > 0 && m.epochBytes.Load() >= m.opts.walSoftLimit {
			select {
			case m.ckptPoke <- struct{}{}:
			default:
			}
		}
	}
	handle := func(msg walMsg) {
		switch msg.kind {
		case mkRecord:
			writeRecord(msg.rec)
		case mkSync:
			sync()
			msg.ack <- walAck{lastLSN: m.lsn.Load(), seq: curSeq}
		case mkRotate:
			sync()
			cur.Close()
			curSeq++
			nf, err := os.OpenFile(filepath.Join(m.dir, seqName(segmentPrefix, curSeq)),
				os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				// Without a fresh segment the old (possibly poisoned)
				// file keeps absorbing appends; surface the error to
				// the checkpointer, which will not GC anything.
				curSeq--
				msg.ack <- walAck{lastLSN: m.lsn.Load(), seq: curSeq, err: err}
				return
			}
			cur = nf
			torn, broken, dirty = false, false, false
			m.epochBytes.Store(0)
			msg.ack <- walAck{lastLSN: m.lsn.Load(), seq: curSeq}
		}
	}

	for {
		select {
		case <-m.killWriter:
			// Crash simulation: abandon the queue, close mid-state.
			cur.Close()
			return
		case <-timer.C:
			timerArmed = false
			sync()
			lastSync = time.Now()
		case msg := <-m.ch:
			handle(msg)
			if len(m.ch) == 0 {
				syncSoon() // group commit: the queue ran dry
			}
		case <-m.stopWriter:
			for {
				select {
				case msg := <-m.ch:
					handle(msg)
				default:
					sync()
					cur.Close()
					return
				}
			}
		}
	}
}
