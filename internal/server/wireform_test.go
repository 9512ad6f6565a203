package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/page"
	"streamhist/internal/server"
)

// TestWireFormMatchesWriteFrame pins the stored form to the wire form: the
// slab is, byte for byte, what AppendFrame produces for each frame's page
// images followed by their checksum trailer — including a short last frame —
// and the page images the side path parses are windows into it, not copies.
func TestWireFormMatchesWriteFrame(t *testing.T) {
	const rows = 76600 // 301 pages: short last frame for every ppf > 1
	rel := testRelation(rows)
	ref := page.Encode(rel)
	for _, ppf := range []int{1, 2, 3, 4, 5, 8, 16, 32, 64, 127} {
		t.Run(fmt.Sprintf("ppf=%d", ppf), func(t *testing.T) {
			if ppf > 1 && len(ref)%ppf == 0 {
				t.Fatalf("%d pages: last frame is not short at ppf %d", len(ref), ppf)
			}
			srv := server.New(server.Config{PagesPerFrame: ppf})
			if err := srv.Register(rel); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			slab, images, sums, err := srv.WireForm(rel.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(images) != len(ref) || len(sums) != len(ref) {
				t.Fatalf("%d images, %d sums, want %d", len(images), len(sums), len(ref))
			}
			rest := slab
			for off := 0; off < len(ref); off += ppf {
				end := min(off+ppf, len(ref))
				var payload []byte
				for _, p := range ref[off:end] {
					payload = append(payload, p.Bytes()...)
				}
				for _, p := range ref[off:end] {
					payload = binary.LittleEndian.AppendUint32(payload, p.Checksum())
				}
				want := server.AppendFrame(nil, server.FramePagesCk, payload)
				if len(rest) < len(want) || !bytes.Equal(rest[:len(want)], want) {
					t.Fatalf("frame at page %d differs from AppendFrame", off)
				}
				for i := off; i < end; i++ {
					at := server.FrameHeaderSize + (i-off)*page.Size
					if &images[i][0] != &rest[at] || len(images[i]) != page.Size {
						t.Fatalf("page %d is not a window into its slab frame", i)
					}
				}
				rest = rest[len(want):]
			}
			if len(rest) != 0 {
				t.Fatalf("%d slab bytes past the last frame", len(rest))
			}
		})
	}
}

// TestStableImagesSurviveCorruptionChaos runs 50 scans under the
// corruption-heavy profile, four connections at a time. Armed corruption is
// the one path that damages frame bytes, and it must damage a scratch copy:
// the slab every scan shares stays bit-identical to its encode-time state,
// every stored image still checksums to its encode-time sum, and each scan
// (the client verifies and resumes) sinks exactly the storage bytes. Under
// -race a write to the slab would also race the other connections' reads.
func TestStableImagesSurviveCorruptionChaos(t *testing.T) {
	const rows = 3000
	want := storageBytes(t, rows)
	profile, err := faults.ByName(faults.ProfileCorruptionHeavy)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Faults:        faults.New(41, profile),
		PagesPerFrame: 4,
		ShardLanes:    2,
	})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	slab, images, sums, err := srv.WireForm("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(slab)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := pipeClient(srv)
			defer c.Close()
			for i := w; i < 50; i += 4 {
				var got bytes.Buffer
				if _, err := c.Scan("synthetic", "c1", &got); err != nil {
					t.Errorf("scan %d: %v", i, err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("scan %d: delivered bytes differ from storage", i)
				}
			}
		}(w)
	}
	wg.Wait()

	if m := srv.Metrics(); m.RetriesServed == 0 {
		t.Fatal("no scan was ever resumed: the profile injected no corruption")
	}
	if !bytes.Equal(slab, before) {
		t.Fatal("the stored wire form changed under armed corruption")
	}
	for i, img := range images {
		if page.Checksum(img) != sums[i] {
			t.Fatalf("stored page %d no longer matches its encode-time checksum", i)
		}
	}
}

// TestConcurrentFirstScans races eight connections' first scans of a table
// nobody has scanned: the lazy encode, the wire-form layout and the
// re-pointing of the page images run under one sync.Once, so every scan —
// raw ones and ones whose lanes parse the images — sees the finished slab
// and delivers the storage bytes. Run under -race.
func TestConcurrentFirstScans(t *testing.T) {
	const rows, conns = 6000, 8
	want := storageBytes(t, rows)
	srv := server.New(server.Config{PagesPerFrame: 3, ShardLanes: 2})
	if err := srv.Register(testRelation(rows)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := pipeClient(srv)
			defer c.Close()
			column := ""
			if i%2 == 1 {
				column = "c1"
			}
			<-start
			var got bytes.Buffer
			sum, err := c.Scan("synthetic", column, &got)
			if err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("conn %d: delivered bytes differ from storage", i)
			}
			if column != "" && (!sum.Refreshed || sum.Degraded) {
				t.Errorf("conn %d: side path not clean: %+v", i, sum)
			}
		}(i)
	}
	close(start)
	wg.Wait()
}
