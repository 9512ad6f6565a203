package durable

import (
	"fmt"
	"strconv"
	"testing"
)

// populate fills a durable dir with n catalog entries spread over a handful
// of tables and returns after a clean Close, so the state is entirely in the
// last checkpoint file (recovery cost is dominated by decoding its entries).
func populate(b *testing.B, dir string, n int) {
	b.Helper()
	m, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	cat := m.Catalog()
	for i := 0; i < n; i++ {
		tbl := "t" + strconv.Itoa(i%8)
		cat.Put(tbl, "c"+strconv.Itoa(i), testStats(int64(i)))
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecovery measures cold-start recovery (checkpoint load + WAL
// replay) as a function of catalog size. This is the number EXPERIMENTS.md
// reports as recovery time vs catalog size.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			populate(b, dir, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Inspect(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures recovery when the state lives in the WAL
// rather than a checkpoint: mutations journaled after the last checkpoint
// must be decoded, gap-checked, and re-applied one by one.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			m, err := Open(dir, Options{CheckpointInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			cat := m.Catalog()
			for i := 0; i < n; i++ {
				cat.Put("t"+strconv.Itoa(i%8), "c"+strconv.Itoa(i), testStats(int64(i)))
			}
			if err := m.Sync(); err != nil {
				b.Fatal(err)
			}
			m.Abandon() // leave everything in the WAL, nothing checkpointed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Inspect(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint measures a full checkpoint: WAL rotation, framing the
// installed entries' bytes into records, atomic install, read-back verify,
// GC.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			m, err := Open(dir, Options{CheckpointInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Abandon()
			cat := m.Catalog()
			for i := 0; i < n; i++ {
				cat.Put("t"+strconv.Itoa(i%8), "c"+strconv.Itoa(i), testStats(int64(i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppend measures the hot mutation path as the catalog sees it:
// Put encodes the entry outside the lock, then under it the journal hook
// enqueues the record carrying those bytes. The fsync happens on the writer
// goroutine, off this path.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(dir, Options{CheckpointInterval: -1, walSoftLimit: 1 << 40, queueDepth: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Abandon()
	cat := m.Catalog()
	stats := testStats(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.Put("lineitem", "l_quantity", stats)
	}
	b.StopTimer()
	if err := m.Sync(); err != nil {
		b.Fatal(err)
	}
}
