package server

import "bufio"

// WireForm exposes a registered table's stored state to the external tests:
// the wire-form slab, the page images scans and lanes alias, and the
// encode-time checksums. It triggers the lazy encode like a first scan does.
func (s *Server) WireForm(table string) (slab []byte, images [][]byte, sums []uint32, err error) {
	e, err := s.lookup(table)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, p := range e.pageImages() {
		images = append(images, p.Bytes())
	}
	return e.slab, images, e.pageSums(), nil
}

// WriteStats runs the server side of a Stats read for table.column into bw:
// the catalog lookup and the reply frame, exactly as a connection gets it.
func (s *Server) WriteStats(bw *bufio.Writer, table, column string) error {
	return s.handleStats(bw, ScanRequest{Table: table, Column: column})
}
