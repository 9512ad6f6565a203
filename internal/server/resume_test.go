package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/stream"
)

// rawScan runs one SCAN request over a fresh pipe to srv, speaking the
// protocol by hand, and returns the resume start the server announced (-1
// when no FrameResumeInfo arrived), the concatenated page bytes, and the
// summary.
func rawScan(t *testing.T, srv *server.Server, req server.ScanRequest) (int64, []byte, server.ScanSummary) {
	t.Helper()
	sc, cc := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(sc)
		close(done)
	}()
	defer func() {
		cc.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn did not return")
		}
	}()
	cc.SetDeadline(time.Now().Add(10 * time.Second))
	werr := make(chan error, 1)
	go func() { // net.Pipe is unbuffered: write and read concurrently
		werr <- server.WriteFrame(cc, server.FrameScan, server.EncodeScanRequest(req))
	}()

	resume := int64(-1)
	var pagesOut []byte
	for {
		f, err := server.ReadFrame(cc)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		switch f.Type {
		case server.FrameResumeInfo:
			if resume >= 0 {
				t.Fatal("duplicate FrameResumeInfo")
			}
			if len(pagesOut) > 0 {
				t.Fatal("FrameResumeInfo arrived after pages")
			}
			start, err := server.DecodeResumeInfo(f.Payload)
			if err != nil {
				t.Fatalf("resume info: %v", err)
			}
			resume = int64(start)
		case server.FramePagesCk:
			unit := page.Size + server.PageChecksumSize
			n := len(f.Payload) / unit
			if n == 0 || len(f.Payload)%unit != 0 {
				t.Fatalf("bad pages+ck frame of %d bytes", len(f.Payload))
			}
			trailer := f.Payload[n*page.Size:]
			for i := 0; i < n; i++ {
				img := f.Payload[i*page.Size : (i+1)*page.Size]
				if page.Checksum(img) != binary.LittleEndian.Uint32(trailer[i*4:]) {
					t.Fatalf("page %d failed its trailer checksum", i)
				}
			}
			pagesOut = append(pagesOut, f.Payload[:n*page.Size]...)
		case server.FrameScanEnd:
			sum, err := server.DecodeScanSummary(f.Payload)
			if err != nil {
				t.Fatalf("summary: %v", err)
			}
			if err := <-werr; err != nil {
				t.Fatalf("write request: %v", err)
			}
			return resume, pagesOut, sum
		default:
			t.Fatalf("unexpected frame type %d", f.Type)
		}
	}
}

// TestResumeOffsetSweepFrameAligned is the resume-edge regression sweep:
// for every frame size and EVERY page offset — boundary, mid-frame, and
// one-past-the-end alike — a resumed scan must announce a start aligned
// down to the frame boundary and then deliver exactly the relation's pages
// from that start, byte-identical to a clean scan's suffix.
func TestResumeOffsetSweepFrameAligned(t *testing.T) {
	rel := testRelation(35500)
	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatal(err)
	}
	npages := len(want) / page.Size
	if npages <= 127 {
		t.Fatalf("relation too small for the sweep: %d pages, want more than the largest frame", npages)
	}
	for _, fs := range []int{1, 2, 3, 4, 5, 8, 16, 32, 64, 127} {
		fs := fs
		t.Run(fmt.Sprintf("frame=%d", fs), func(t *testing.T) {
			t.Parallel()
			srv := server.New(server.Config{PagesPerFrame: fs})
			if err := srv.Register(rel); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for off := 0; off <= npages; off++ {
				resume, got, sum := rawScan(t, srv, server.ScanRequest{Table: "synthetic", Offset: uint32(off)})
				start := off - off%fs
				if off == 0 {
					if resume != -1 {
						t.Fatalf("offset 0 must not carry FrameResumeInfo, got start %d", resume)
					}
					start = 0
				} else if resume != int64(start) {
					t.Fatalf("offset %d: announced start %d, want %d", off, resume, start)
				}
				if !bytes.Equal(got, want[start*page.Size:]) {
					t.Fatalf("offset %d (frame %d): delivered pages differ from the clean suffix at %d", off, fs, start)
				}
				if int(sum.Pages) != npages-start {
					t.Fatalf("offset %d: summary counts %d pages, want %d", off, sum.Pages, npages-start)
				}
			}
		})
	}
}

// TestClientIgnoresDamageInRedeliveredOverlap: the pages a frame-aligned
// resume sends again are duplicates of pages the sink already holds, so a
// page damaged in flight among them must not cost the attempt — otherwise
// resuming into a long frame under in-flight corruption stalls on pages the
// client throws away. Attempt one fails at page 2 of a 4-page frame; every
// redial lands on a server that re-sends from page 0 with pages 0 and 1
// corrupted and everything after them clean. One retry must finish the scan
// byte-identical to storage.
func TestClientIgnoresDamageInRedeliveredOverlap(t *testing.T) {
	const frame, badAt = 4, 2
	want, err := io.ReadAll(stream.NewPagesReader(testRelation(4000)))
	if err != nil {
		t.Fatal(err)
	}
	npages := len(want) / page.Size
	framePayload := func(off int, corrupt func(i int) bool) []byte {
		end := min(off+frame, npages)
		payload := append([]byte(nil), want[off*page.Size:end*page.Size]...)
		for i := off; i < end; i++ {
			payload = binary.LittleEndian.AppendUint32(payload, page.Checksum(want[i*page.Size:(i+1)*page.Size]))
		}
		for i := off; i < end; i++ {
			if corrupt(i) {
				payload[(i-off)*page.Size] ^= 0xFF // damage after the trailer was taken
			}
		}
		return payload
	}
	// fake serves one request on a pipe: an optional resume announcement,
	// then the frames from start, pages damaged where corrupt says.
	fake := func(resume bool, start int, corrupt func(i int) bool, last int) net.Conn {
		sc, cc := net.Pipe()
		go func() {
			defer sc.Close()
			if _, err := server.ReadFrame(sc); err != nil {
				return
			}
			if resume {
				server.WriteFrame(sc, server.FrameResumeInfo, server.EncodeResumeInfo(uint32(start))) //nolint:errcheck
			}
			for off := start; off < last; off += frame {
				if server.WriteFrame(sc, server.FramePagesCk, framePayload(off, corrupt)) != nil {
					return
				}
			}
			if last == npages {
				sent := uint64(npages-start) * page.Size
				server.WriteFrame(sc, server.FrameScanEnd, server.EncodeScanSummary( //nolint:errcheck
					server.ScanSummary{Pages: uint32(npages - start), Bytes: sent}))
			}
		}()
		return cc
	}

	c := client.New(fake(false, 0, func(i int) bool { return i == badAt }, frame))
	c.SetTimeout(10 * time.Second)
	c.SetRetryPolicy(3, time.Millisecond)
	c.SetRedial(func() (net.Conn, error) {
		return fake(true, 0, func(i int) bool { return i < badAt }, npages), nil
	})
	var got bytes.Buffer
	sum, err := c.Scan("synthetic", "", &got)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	c.Close()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("sink differs from storage")
	}
	if sum.Retries != 1 {
		t.Fatalf("summary reports %d retries, want 1: damage in the overlap cost an attempt", sum.Retries)
	}
}

// TestClientSkipsRedeliveredPages drives the client's dedup path across every
// possible mid-frame interruption point: attempt one is a hand-rolled fake
// server that corrupts exactly page k (so the client verifiably delivers k
// pages and fails), the redial lands on a real server, and the resumed scan's
// frame-aligned re-delivery must leave the sink byte-identical to a clean
// scan — no duplicated, missing, or reordered page, whatever k was.
func TestClientSkipsRedeliveredPages(t *testing.T) {
	const frame = 4
	rel := testRelation(4000)
	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatal(err)
	}
	npages := len(want) / page.Size
	srv := server.New(server.Config{PagesPerFrame: frame})
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for k := 0; k < npages && k < frame; k++ {
		k := k
		t.Run(fmt.Sprintf("corrupt_page=%d", k), func(t *testing.T) {
			fakeSrv, fakeCli := net.Pipe()
			go func() { // fake first-attempt server: first frame, page k corrupt
				defer fakeSrv.Close()
				if _, err := server.ReadFrame(fakeSrv); err != nil {
					return
				}
				n := frame
				if n > npages {
					n = npages
				}
				payload := make([]byte, 0, n*(page.Size+server.PageChecksumSize))
				payload = append(payload, want[:n*page.Size]...)
				for i := 0; i < n; i++ {
					payload = binary.LittleEndian.AppendUint32(payload,
						page.Checksum(want[i*page.Size:(i+1)*page.Size]))
				}
				payload[k*page.Size] ^= 0xFF                             // damage page k after the trailer
				server.WriteFrame(fakeSrv, server.FramePagesCk, payload) //nolint:errcheck
			}()

			c := client.New(fakeCli)
			c.SetTimeout(10 * time.Second)
			c.SetRedial(func() (net.Conn, error) {
				sc, cc := net.Pipe()
				go srv.ServeConn(sc)
				return cc, nil
			})
			var got bytes.Buffer
			sum, err := c.Scan("synthetic", "", &got)
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			c.Close()
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("sink differs from clean scan after resume at page %d", k)
			}
			if sum.Pages != uint32(npages) || sum.Bytes != uint64(len(want)) {
				t.Fatalf("summary %d pages / %d bytes, want %d / %d", sum.Pages, sum.Bytes, npages, len(want))
			}
			if sum.Retries != 1 {
				t.Fatalf("summary reports %d retries, want 1", sum.Retries)
			}
		})
	}
}
