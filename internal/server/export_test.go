package server

import (
	"bufio"
	"encoding/binary"
	"time"

	"streamhist/internal/page"
)

// TestConfig holds the settings New fixes, for tests to shorten or lengthen.
// Zero fields keep New's value, so NewForTest(cfg, TestConfig{}) serves as
// New(cfg) does.
type TestConfig struct {
	// WriteTimeout is the response write's progress window: a frame write
	// that moves less than 16 KiB in one WriteTimeout fails. Zero means 30 s.
	WriteTimeout time.Duration
	// SideStallTimeout bounds the wait on a side-path lane that stopped
	// accepting units before it is retired. Zero means 500 ms.
	SideStallTimeout time.Duration
}

// NewForTest is New with tc's settings.
func NewForTest(cfg Config, tc TestConfig) *Server {
	s := New(cfg)
	s.writeTimeout, s.sideStallTimeout = tc.WriteTimeout, tc.SideStallTimeout
	return s
}

// WireForm exposes a registered table's stored state to the external tests:
// the wire-form slab, the page images scans and lanes alias, and the
// encode-time checksums, read from the slab's frame trailers. It triggers the
// lazy encode like a first scan does.
func (s *Server) WireForm(table string) (slab []byte, images [][]byte, sums []uint32, err error) {
	e, err := s.lookup(table)
	if err != nil {
		return nil, nil, nil, err
	}
	pages := e.pageImages()
	for _, p := range pages {
		images = append(images, p.Bytes())
	}
	for off := 0; off < len(pages); off += e.ppf {
		f := e.frame(off)
		trailer := f[FrameHeaderSize+(min(off+e.ppf, len(pages))-off)*page.Size:]
		for len(trailer) > 0 {
			sums = append(sums, binary.LittleEndian.Uint32(trailer))
			trailer = trailer[PageChecksumSize:]
		}
	}
	return e.slab, images, sums, nil
}

// WriteStats runs the server side of a Stats read for table.column into bw:
// the catalog lookup and the reply frame, exactly as a connection gets it.
func (s *Server) WriteStats(bw *bufio.Writer, table, column string) error {
	return s.handleStats(bw, ScanRequest{Table: table, Column: column})
}
