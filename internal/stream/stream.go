// Package stream assembles the full data path of Figure 9: storage emits a
// byte stream of database pages, the host consumes it unchanged through a
// cut-through path, and a Splitter feeds a byte-identical copy to the
// statistical circuit. Unlike internal/core's value-level entry points,
// everything here operates on real bytes through io.Reader, so the
// "implicit accelerator" property — the host sees exactly what storage
// sent, with only wire latency added — is checked end to end.
package stream

import (
	"fmt"
	"io"
	"sync"

	"streamhist/internal/core"
	"streamhist/internal/hwprof"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
	"streamhist/internal/table"
)

// PagesReader exposes a relation's page images as one contiguous byte
// stream — the storage side of the path.
type PagesReader struct {
	pages []*page.Page
	idx   int
	off   int
}

// NewPagesReader returns a reader over the relation's encoded pages.
func NewPagesReader(rel *table.Relation) *PagesReader {
	return &PagesReader{pages: page.Encode(rel)}
}

// NewPagesReaderFromPages returns a reader over already encoded page
// images, so callers that cache a relation's pages (the scan server does)
// can stream them repeatedly without re-encoding.
func NewPagesReaderFromPages(pages []*page.Page) *PagesReader {
	return &PagesReader{pages: pages}
}

// Read implements io.Reader.
func (r *PagesReader) Read(p []byte) (int, error) {
	if r.idx >= len(r.pages) {
		return 0, io.EOF
	}
	n := copy(p, r.pages[r.idx].Bytes()[r.off:])
	r.off += n
	if r.off == page.Size {
		r.idx++
		r.off = 0
	}
	return n, nil
}

// Tap is the Splitter: an io.Reader that relays the source unchanged to the
// host while pushing every byte through the Parser and Binner on the side.
// The relay path does no transformation whatsoever — the returned bytes are
// the source's bytes.
type Tap struct {
	src    io.Reader
	parser *core.Parser
	binner *core.Binner
	vals   []int64 // scratch reused across reads

	bytesRelayed int64
	parseErr     error
}

// NewTap wires a tap over src for the given column and binner.
func NewTap(src io.Reader, spec core.ColumnSpec, binner *core.Binner) *Tap {
	return &Tap{src: src, parser: core.NewParser(spec), binner: binner}
}

// Read implements io.Reader: the host's view of the stream.
func (t *Tap) Read(p []byte) (int, error) {
	n, err := t.src.Read(p)
	if n > 0 {
		t.bytesRelayed += int64(n)
		// Side path: parse the copy and push extracted values into the
		// binner. A parse error never disturbs the host's stream — the
		// accelerator fails open (§4: it must never slow down or corrupt
		// the regular flow of data).
		if t.parseErr == nil {
			t.vals = t.vals[:0]
			vals, perr := t.parser.Feed(p[:n], t.vals)
			if perr != nil {
				t.parseErr = perr
			} else {
				t.vals = vals
				t.binner.PushAll(vals)
			}
		}
	}
	return n, err
}

// BytesRelayed returns how many bytes the host has received.
func (t *Tap) BytesRelayed() int64 { return t.bytesRelayed }

// ParseErr returns the side path's error, if any (the host stream is
// unaffected either way).
func (t *Tap) ParseErr() error { return t.parseErr }

// ScanResult is what a completed data-path scan yields.
type ScanResult struct {
	// HostBytes is the number of bytes delivered to the host.
	HostBytes int64
	// Results are the accelerator outputs (nil histograms for disabled
	// blocks), identical in content to core.Circuit.Process.
	Results *core.Results
	// TransferSeconds is the stream time over the configured link;
	// AddedLatencySeconds is the splitter+I/O delay the host observed on
	// top of it (size-independent).
	TransferSeconds     float64
	AddedLatencySeconds float64
	// AcceleratorKeptUp reports whether the Binner's sustained rate
	// matched the link's value arrival rate — the §4 requirement that the
	// Binner "handle all input data without dropping rows".
	AcceleratorKeptUp bool
}

// Link models the transmission medium between storage and host.
type Link struct {
	Name        string
	BytesPerSec float64
}

// Common links of the paper's discussion.
var (
	// GigabitEthernet is the Fig 22 reference medium.
	GigabitEthernet = Link{Name: "1GbE", BytesPerSec: 1e9 / 8}
	// TenGbE is the §7 target rate.
	TenGbE = Link{Name: "10GbE", BytesPerSec: 10e9 / 8}
	// PCIeGen1x8 is the prototype's host attachment (§6).
	PCIeGen1x8 = Link{Name: "PCIe Gen1 x8", BytesPerSec: 2e9}
)

// DataPath couples a relation, a column choice, and a link.
type DataPath struct {
	Rel    *table.Relation
	Column string
	Link   Link
	Config core.Config
	// Prof, when non-nil, receives the cycle attribution of every scan:
	// the binner's pipeline decomposition under lane frame "lane0" and the
	// histogram chain under "merged". Nil keeps the unprofiled baseline.
	Prof *hwprof.Profiler
	// Sketch configures the daisy chain of statistic blocks riding the side
	// path (internal/sketch). The zero spec disables it — the zero-cost
	// baseline, same as a nil Prof.
	Sketch sketch.ChainSpec

	// pageCache holds the relation's encoded page images across scans (the
	// relation is immutable while scans run). Guarded for concurrent Scans.
	pageCacheMu sync.Mutex
	pageCache   []*page.Page
}

// encodedPages returns the relation's page images, encoding on first use.
func (d *DataPath) encodedPages() []*page.Page {
	d.pageCacheMu.Lock()
	defer d.pageCacheMu.Unlock()
	if d.pageCache == nil {
		d.pageCache = page.Encode(d.Rel)
	}
	return d.pageCache
}

// NewDataPath builds a path with the default accelerator configuration for
// the column's observed value range.
func NewDataPath(rel *table.Relation, column string, link Link) (*DataPath, error) {
	spec, err := core.SpecFor(rel.Schema, column)
	if err != nil {
		return nil, err
	}
	min, max, err := core.ColumnRange(rel.ColumnByName(column))
	if err != nil {
		return nil, fmt.Errorf("stream: column %q: %w", column, err)
	}
	return &DataPath{Rel: rel, Column: column, Link: link, Config: core.DefaultConfig(spec, min, max)}, nil
}

// Scan streams the relation to the host through the tap, writing the
// host-received bytes into hostSink (pass io.Discard when only the
// statistics matter), and returns the accelerator's results plus the path
// timing. The readBuf size shapes the chunking; any size works.
func (d *DataPath) Scan(hostSink io.Writer, readBufBytes int) (*ScanResult, error) {
	if readBufBytes <= 0 {
		readBufBytes = 64 << 10
	}
	pre, err := core.RangeFor(d.Config.Min, d.Config.Max, d.Config.Divisor)
	if err != nil {
		return nil, err
	}
	bcfg := d.Config.Binner
	if d.Prof != nil {
		bcfg.Prof = d.Prof
		bcfg.ProfLane = "lane0"
	}
	// The serial path consumes values in storage order, so the chain's own
	// cursor (0, 1, 2, …) already IS the global row ordinal — no SetStreamPos
	// needed.
	bcfg.Sketches = sketch.NewChain(d.Sketch)
	binner := core.NewBinner(bcfg, pre)
	src := NewPagesReaderFromPages(d.encodedPages())
	tap := NewTap(src, d.Config.Column, binner)

	buf := make([]byte, readBufBytes)
	if _, err := io.CopyBuffer(hostSink, onlyReader{tap}, buf); err != nil {
		return nil, fmt.Errorf("stream: host copy: %w", err)
	}
	if err := tap.ParseErr(); err != nil {
		return nil, fmt.Errorf("stream: side path: %w", err)
	}

	_, bstats := binner.Finish()
	res := d.Config.Results(binner, bstats, d.Prof)
	return &ScanResult{
		HostBytes:           tap.BytesRelayed(),
		Results:             res,
		TransferSeconds:     float64(tap.BytesRelayed()) / d.Link.BytesPerSec,
		AddedLatencySeconds: d.Config.Splitter.AddedLatencySeconds(),
		AcceleratorKeptUp:   keptUp(res, d.Link, d.Rel),
	}, nil
}

// keptUp reports whether the Binner's sustained rate matched the link's
// value arrival rate: the link delivers rows at bytes/s ÷ rowWidth and the
// accelerator sees one value per row.
func keptUp(res *core.Results, link Link, rel *table.Relation) bool {
	arrival := link.BytesPerSec / float64(rel.Schema.RowWidth())
	st := res.BinnerStats
	return st.Items == 0 || float64(st.Items)/res.BinningSeconds >= arrival
}

// onlyReader hides any WriteTo/ReadFrom fast paths so the copy really goes
// through Tap.Read chunk by chunk.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }
