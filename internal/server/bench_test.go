package server_test

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/server"
	"streamhist/internal/stream"
)

// BenchmarkServedScanDurable measures what durability costs a served scan
// end to end. "ephemeral" is a server with no durable manager (histserved
// serve without -data-dir); "durable" journals every catalog mutation
// through the async WAL while a 50ms background
// checkpointer snapshots the catalog under the serving load — deliberately
// far more aggressive than the 30s production default, so the measured gap
// is an upper bound on the checkpoint + journal overhead; "durable-wal-only"
// disables timed checkpoints to isolate the journaling cost itself. The hot
// path only enqueues; fsync happens on the writer goroutine, so wal-only
// should stay within a few percent of ephemeral (the ≤5% gate recorded in
// EXPERIMENTS.md).
func BenchmarkServedScanDurable(b *testing.B) {
	for _, rows := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchmarkServedScanDurable(b, rows)
		})
	}
}

func benchmarkServedScanDurable(b *testing.B, rows int) {
	rel := testRelation(rows)
	pages, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		// ckpt is the checkpoint interval; 0 means no durable manager at
		// all (the ephemeral baseline).
		ckpt time.Duration
	}{
		{"ephemeral", 0},
		{"durable-wal-only", -1},
		{"durable-ckpt-50ms", 50 * time.Millisecond},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var m *durable.Manager
			if mode.ckpt != 0 {
				var err error
				m, err = durable.Open(b.TempDir(), durable.Options{
					CheckpointInterval: mode.ckpt,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
			}
			srv := server.New(server.Config{Durable: m, PagesPerFrame: 8})
			if err := srv.Register(rel); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			sc, cc := net.Pipe()
			go srv.ServeConn(sc)
			c := client.New(cc)
			defer c.Close()
			b.SetBytes(int64(len(pages)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The journal's per-scan cost is dominated by encoding the refreshed column
// statistics (histogram + sketch chain, tens of KB) into one WAL record —
// fixed per mutation, not per page — so the relative overhead shrinks as
// relations grow; the rows dimension above makes that amortization visible.
