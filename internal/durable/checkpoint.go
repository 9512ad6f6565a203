package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"streamhist/internal/dbms"
)

// A checkpoint is a compacted WAL segment: after the log rotates to segment
// S, ckpt-S.log holds the live state at one instant in the WAL's own record
// framing — a RecCheckpoint head (base LSN and seq, lossy flag, count), one
// RecPut per installed entry carrying its bytes, one RecBump per table
// version, and a RecScanStart/RecScanProgress pair per open scan. The count
// makes a file cut at a record boundary as invalid as one cut mid-record.
// Recovery applies the newest file that loads as its base and replays
// segments S and later on top.

// ScanState is one in-flight scan journal entry: a scan that had started
// (and possibly progressed) but not finished when the state was captured.
type ScanState struct {
	ID            uint64
	Table, Column string
	// Start is the page index the scan began delivering from.
	Start uint32
	// Pages is the delivered high-water mark, in pages from the start of
	// the relation, recorded at frame granularity.
	Pages uint32
}

const checkpointPrefix = "ckpt-"

// loadCheckpoint rebuilds the state a checkpoint file holds into a fresh
// catalog and scan journal. The file must decode completely — a
// RecCheckpoint head, exactly the records it counts, each of a type a
// checkpoint holds and each entry decodable, and nothing after them — or it
// is rejected as a whole.
func loadCheckpoint(buf []byte) (*dbms.Catalog, map[uint64]*ScanState, Record, error) {
	head, n, err := DecodeRecord(buf)
	if err == nil && head.Type != RecCheckpoint {
		err = fmt.Errorf("%w: checkpoint starts with a type-%d record", ErrCorruptRecord, head.Type)
	}
	if err != nil {
		return nil, nil, head, err
	}
	cat, scans := dbms.NewCatalog(), make(map[uint64]*ScanState)
	for i := uint32(0); i < head.Count; i++ {
		buf = buf[n:]
		var rec Record
		rec, n, err = DecodeRecord(buf)
		if err == nil && (rec.Type == RecCheckpoint || rec.Type == RecScanEnd) {
			err = fmt.Errorf("%w: type-%d record inside a checkpoint", ErrCorruptRecord, rec.Type)
		}
		if err == nil {
			err = applyRecord(cat, scans, rec)
		}
		if err != nil {
			return nil, nil, head, fmt.Errorf("checkpoint record %d of %d: %w", i, head.Count, err)
		}
	}
	if len(buf) != n {
		return nil, nil, head, fmt.Errorf("%w: %d bytes after the checkpoint's %d records", ErrCorruptRecord, len(buf)-n, head.Count)
	}
	return cat, scans, head, nil
}

// applyRecord applies one record to a catalog and scan journal under
// reconstruction. Only a put whose entry does not decode fails.
func applyRecord(cat *dbms.Catalog, scans map[uint64]*ScanState, rec Record) error {
	switch rec.Type {
	case RecPut:
		s, rest, err := dbms.DecodeColumnStats(rec.Stats)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%w: %d bytes after entry %s.%s", ErrCorruptRecord, len(rest), rec.Table, rec.Column)
		}
		if err != nil {
			return err
		}
		cat.RestorePut(rec.Table, rec.Column, s)
	case RecBump:
		cat.RestoreVersion(rec.Table, rec.Version)
	case RecScanStart:
		if _, ok := scans[rec.ScanID]; !ok {
			scans[rec.ScanID] = &ScanState{
				ID: rec.ScanID, Table: rec.Table, Column: rec.Column,
				Start: rec.Pages, Pages: rec.Pages,
			}
		}
	case RecScanProgress:
		if st, ok := scans[rec.ScanID]; ok && rec.Pages > st.Pages {
			st.Pages = rec.Pages
		}
	case RecScanEnd:
		delete(scans, rec.ScanID)
	}
	return nil
}

// writeCheckpointFile installs an encoded checkpoint as name atomically:
// write a temporary file, fsync it, rename it into place, and fsync the
// directory so the rename itself is durable.
func writeCheckpointFile(dir, name string, encoded []byte) error {
	tmp := filepath.Join(dir, "ckpt.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(encoded)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
