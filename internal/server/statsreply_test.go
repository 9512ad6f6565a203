package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"streamhist/internal/client"
	"streamhist/internal/dbms"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

// statsColumns are the lineitem columns histserved's stats command is
// checked on: a 50-value column, a wide-domain one and a sparse key.
var statsColumns = []string{"l_quantity", "l_extendedprice", "l_orderkey"}

// reencodedStats is the Stats frame built the long way, from the entry's
// re-marshalled parts: the reference the served bytes must equal.
func reencodedStats(t *testing.T, st *dbms.ColumnStats) []byte {
	t.Helper()
	h, err := st.Histogram.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.EncodeBlocks(st.Sketches)
	if err != nil {
		t.Fatal(err)
	}
	return server.AppendFrame(nil, server.FrameStatsResult, server.EncodeStatsResult(server.StatsResult{
		RowCount: st.RowCount, NDistinct: st.NDistinct, Version: st.Version,
		Histogram: h, Sketches: sk,
	}))
}

// TestStatsReplyIsTheInstalledEntry: a Stats reply is the entry's installed
// bytes behind the wire head — byte for byte what EncodeStatsResult makes of
// the re-marshalled entry, on three lineitem columns, with the default
// sketch chain and with it off — and the server side of the read allocates
// nothing.
func TestStatsReplyIsTheInstalledEntry(t *testing.T) {
	rel := tpch.Lineitem(20_000, 1, 31)
	for _, tc := range []struct {
		name string
		spec *sketch.ChainSpec
	}{{"default-chain", nil}, {"sketches-off", &sketch.ChainSpec{}}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New(server.Config{ShardLanes: 2, Sketch: tc.spec})
			if err := srv.Register(rel); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c := pipeClient(srv)
			defer c.Close()
			for _, col := range statsColumns {
				if _, err := c.Scan(rel.Name, col, io.Discard); err != nil {
					t.Fatal(err)
				}
				st := srv.Catalog().Get(rel.Name, col)
				if st == nil {
					t.Fatalf("%s: no catalog entry after a scan", col)
				}
				if (tc.spec == nil) != (len(st.Sketches) > 0) {
					t.Fatalf("%s: %d sketch blocks with chain %s", col, len(st.Sketches), tc.name)
				}
				var got bytes.Buffer
				bw := bufio.NewWriter(&got)
				if err := srv.WriteStats(bw, rel.Name, col); err != nil {
					t.Fatal(err)
				}
				if want := reencodedStats(t, st); !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s: served %d bytes, re-encoded entry is %d", col, got.Len(), len(want))
				}
				bw.Reset(io.Discard)
				if n := testing.AllocsPerRun(50, func() {
					if err := srv.WriteStats(bw, rel.Name, col); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("%s: a Stats read allocates %v times on the server", col, n)
				}
			}
		})
	}
}

// TestShallowCopyPutDoesNotAlias installs a shallow copy of a live entry
// under a new version, as a replay of the entry does, while another
// goroutine serves Stats reads of the original: the original's bytes and
// version must not move, and the copy's bytes must carry the new version.
// Under -race any write into the shared bytes is a reported race.
func TestShallowCopyPutDoesNotAlias(t *testing.T) {
	rel := tpch.Lineitem(5000, 1, 37)
	srv := server.New(server.Config{ShardLanes: 2})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := pipeClient(srv)
	defer c.Close()
	if _, err := c.Scan(rel.Name, "l_quantity", io.Discard); err != nil {
		t.Fatal(err)
	}
	cat := srv.Catalog()
	orig := cat.Get(rel.Name, "l_quantity")
	before := append([]byte(nil), orig.Encoded()...)
	want := reencodedStats(t, orig)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got bytes.Buffer
		bw := bufio.NewWriter(&got)
		for {
			select {
			case <-stop:
				return
			default:
			}
			got.Reset()
			if err := srv.WriteStats(bw, rel.Name, "l_quantity"); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Error("Stats reply of the original entry changed under a Put of its copy")
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		cat.BumpVersion(rel.Name)
		put := *cat.Get(rel.Name, "l_quantity")
		cat.Put(rel.Name, "x", &put)
		if put.Version != cat.Version(rel.Name) {
			t.Fatalf("copy stamped version %d, table is at %d", put.Version, cat.Version(rel.Name))
		}
		back, _, err := dbms.DecodeColumnStats(put.Encoded())
		if err != nil || back.Version != put.Version {
			t.Fatalf("copy's bytes carry version %v (%v), want %d", back, err, put.Version)
		}
	}
	close(stop)
	wg.Wait()
	if orig.Version != 0 || !bytes.Equal(orig.Encoded(), before) || cat.Get(rel.Name, "l_quantity") != orig {
		t.Fatal("Put of a shallow copy changed the original entry")
	}
}

// TestOversizedStatsAnsweredInBand: a catalog entry too large for one frame
// (a 70 000-value window alone encodes to 1.12 MB) is refused with an error
// frame that names its size and the limit, and the connection stays usable.
func TestOversizedStatsAnsweredInBand(t *testing.T) {
	spec := sketch.DefaultChainSpec()
	spec.WindowW = 70_000
	srv := server.New(server.Config{ShardLanes: 2, Sketch: &spec})
	if err := srv.Register(testRelation(70_000)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c := client.New(cc) // no redial: a dropped connection must show
	defer c.Close()
	if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
		t.Fatal(err)
	}
	_, err := c.Stats("synthetic", "c1")
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(server.MaxPayload)) {
		t.Fatalf("Stats of an oversized entry: %v, want an error naming the %d-byte limit", err, server.MaxPayload)
	}
	if _, err := c.Tables(); err != nil {
		t.Fatalf("Tables after the refused Stats: %v", err)
	}
}
