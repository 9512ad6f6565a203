package obs

import (
	"sync"
)

// flightEntity is the always-recorded identity pair of an offered record,
// kept even when the record itself is sampled away, so per-window
// distinct-table/client sketches see the full population.
type flightEntity struct {
	seq           uint64
	table, client string
}

// DefaultFlightRing is how many scan records the recorder retains.
const DefaultFlightRing = 1024

// DefaultFlightSample keeps one in this many healthy records (anomalous
// records are always kept).
const DefaultFlightSample = 4

// FlightRecorder is the tail-sampled view of the scan records: a bounded ring
// in which anomalous scans (errors, degradation, quarantine, retries) are
// always retained and healthy scans are 1-in-N sampled, so a long quiet
// stretch cannot evict the interesting tail. /events, the timeline's entity
// feed and the debug bundles read it. A nil *FlightRecorder no-ops everywhere.
type FlightRecorder struct {
	mu       sync.Mutex
	ring     Ring[*ScanRecord]
	entities Ring[flightEntity]

	seq     uint64 // records offered (and sequence source)
	sampled uint64 // healthy records dropped by sampling

	sampleEvery uint64
	healthySeen uint64
}

// NewFlightRecorder returns a recorder retaining up to capacity records
// (<=0 means DefaultFlightRing) and keeping one in sampleEvery healthy
// records (<=0 means DefaultFlightSample; 1 keeps everything).
func NewFlightRecorder(capacity, sampleEvery int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRing
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultFlightSample
	}
	return &FlightRecorder{
		ring:        NewRing[*ScanRecord](capacity),
		entities:    NewRing[flightEntity](capacity),
		sampleEvery: uint64(sampleEvery),
	}
}

// Record offers one scan record (*Obs).Publish finished — its one caller
// outside tests. The recorder assigns the sequence number before the record
// can be seen through it, applies the tail-sampling policy, and always notes
// the (table, client) identity for the distinct-entity sketches even when
// the record is sampled away. The caller must not mutate rec afterwards.
func (f *FlightRecorder) Record(rec *ScanRecord) {
	if f == nil || rec == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.Seq = f.seq
	f.entities.Push(flightEntity{seq: rec.Seq, table: rec.Table, client: rec.Client})

	if !rec.Anomalous {
		f.healthySeen++
		if f.sampleEvery > 1 && f.healthySeen%f.sampleEvery != 1 {
			f.sampled++
			return
		}
	}
	f.ring.Push(rec)
}

// Recent returns up to n retained records, newest first. Nil-safe.
func (f *FlightRecorder) Recent(n int) []*ScanRecord {
	if f == nil || n <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Newest(n)
}

// EntitiesSince returns the (table, client) identities of records offered
// after seq — all of them, retained or sampled away — oldest first, along
// with the highest sequence number covered. Nil-safe.
func (f *FlightRecorder) EntitiesSince(seq uint64) (tables, clients []string, last uint64) {
	if f == nil {
		return nil, nil, seq
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	last = seq
	for i := 0; i < f.entities.Len(); i++ {
		e := f.entities.At(i)
		if e.seq <= seq {
			continue
		}
		if e.table != "" {
			tables = append(tables, e.table)
		}
		if e.client != "" {
			clients = append(clients, e.client)
		}
		last = max(last, e.seq)
	}
	return tables, clients, last
}

// Stats reports the recorder's accounting: records offered, records retained,
// and healthy records dropped by sampling. Nil-safe.
func (f *FlightRecorder) Stats() (offered, kept, sampledAway uint64) {
	if f == nil {
		return 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq, f.seq - f.sampled, f.sampled
}
