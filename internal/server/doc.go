// Package server turns the library's in-process data path into a network
// service: histserved, a TCP scan server that computes histograms as a side
// effect of serving pages.
//
// The subsystem is Figure 9 of the paper stretched over a real wire. The
// roles map one to one:
//
//   - Storage is the registered relation's encoded page images
//     (internal/page) — the same bytes stream.PagesReader yields and the
//     in-process DataPath reads — held once, already laid out as the page
//     frames a scan sends.
//   - The Splitter is the scan loop: every page frame written to the
//     client, straight from storage, is also dealt to fixed-depth side
//     channels as lanes.UnitPages-page windows into the same images, the
//     same units whatever the frame size, with the pages it saw arrive
//     damaged marked on the unit. The relay path does no transformation —
//     the client receives storage's bytes, byte for byte.
//   - The statistical circuit is the lane engine behind the channel
//     (internal/lanes, the same one stream.ParallelDataPath runs): each
//     lane's Parser FSM extracts the requested column from the page bytes
//     and its cycle-accounted Binner bin-sorts it (internal/core), exactly
//     as stream.Tap does in-process.
//   - The host is the client (internal/client): it consumes raw pages with
//     only framing added, and can fetch the by-product — the freshest
//     hist.Histogram — with a STATS request answered straight from the
//     dbms.Catalog the server refreshes on every served scan.
//
// Wire protocol (protocol.go). One version, named in every frame header
// and checked before the payload is looked at; each message has one layout,
// and a peer at another version is told so once and disconnected.
//
// Concurrency model. Each connection gets a goroutine running a
// request/response loop with an idle deadline and a write deadline that
// bounds progress (16 KiB per 30 s window), not a frame's transfer time.
// Each scan's side path takes a slot from a bounded drain-worker pool;
// within a scan, the fixed-depth channels apply backpressure instead of
// dropping units, so
// the refreshed histogram stays complete. When the pool is saturated the
// scan fails open — pages stream at full speed and only the statistics
// refresh is skipped — preserving the paper's §4 invariant that the
// accelerator must never slow the regular flow of data. Graceful shutdown
// closes listeners, lets in-flight requests finish, and reaps idle
// connections.
package server
