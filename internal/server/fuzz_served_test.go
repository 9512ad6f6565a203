package server_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"streamhist/internal/bins"
	"streamhist/internal/datagen"
	"streamhist/internal/hist"
	"streamhist/internal/lanes"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/stream"
	"streamhist/internal/table"
)

// servedShape is one FuzzServedScan input: a relation of rows rows whose
// column v is drawn by one of four generators, served at ppf pages a frame
// to lanes lanes.
type servedShape struct {
	rows     int
	gen      byte // one of the gen* kinds below
	card     byte // picks the generator's cardinality
	offset   int32
	ppf      byte // 1–64
	lanes    byte // 1–4
	seed     uint32
	hotShift byte // hotspot only: how hot the hot set is
}

const (
	genSmall      = iota // uniform over 1–256 values
	genWide              // uniform past the widest dense lane region, so lanes bin sparse
	genHotspot           // 80/20 over up to about 8 M values
	genSequential        // min, min+1, …
	genKinds
)

const (
	// maxServedRows caps the rows an input asks for: 4 columns of 8 bytes
	// fill a page with 255 rows, so about 80 pages, five lane units.
	maxServedRows = 20_000
	// minSparseBins is one past the widest region a lane keeps dense
	// (core's sparseMinBins, 2^22); genWide pins its column's range to
	// at least this many bins, and at most a widedomain column's 10.3 M.
	minSparseBins = 1<<22 + 1
	wideStep      = 24_000
	shapeBytes    = 16
)

// decodeShape reads an input's first shapeBytes, zero-padded; the rest is
// ignored, so no input asks for more work than maxServedRows rows over a
// region of 10.3 M bins.
func decodeShape(in []byte) servedShape {
	var b [shapeBytes]byte
	copy(b[:], in)
	return servedShape{
		rows:     1 + int(binary.LittleEndian.Uint16(b[0:]))%maxServedRows,
		gen:      b[2] % genKinds,
		card:     b[3],
		offset:   int32(binary.LittleEndian.Uint32(b[4:])),
		ppf:      1 + b[8]%64,
		lanes:    1 + b[9]%4,
		seed:     binary.LittleEndian.Uint32(b[10:]),
		hotShift: b[14] % 16,
	}
}

// encode is decodeShape's inverse for the shapes the seed corpus names.
func (s servedShape) encode() []byte {
	b := make([]byte, shapeBytes)
	binary.LittleEndian.PutUint16(b[0:], uint16(s.rows-1))
	b[2], b[3] = s.gen, s.card
	binary.LittleEndian.PutUint32(b[4:], uint32(s.offset))
	b[8], b[9] = s.ppf-1, s.lanes-1
	binary.LittleEndian.PutUint32(b[10:], s.seed)
	b[14] = s.hotShift
	return b
}

// relation builds the shape's relation: column v, then three zero columns
// that make a page hold 255 rows, so a few thousand rows span several lane
// units.
func (s servedShape) relation() *table.Relation {
	min := int64(s.offset)
	var g datagen.Generator
	switch s.gen {
	case genSmall:
		g = datagen.NewUniform(uint64(s.seed), min, 1+int64(s.card))
	case genWide:
		g = datagen.NewUniform(uint64(s.seed), min, minSparseBins+int64(s.card)*wideStep)
	case genHotspot:
		g = datagen.NewHotspot(uint64(s.seed), min, 1+int64(s.card)<<s.hotShift, 0.8, 0.2)
	default:
		g = datagen.NewSequential(min, 1+int64(s.card)<<8)
	}
	rel := table.NewRelation("fuzz", table.NewSchema(
		table.Column{Name: "v", Type: table.Int64}, table.Column{Name: "pad1", Type: table.Int64},
		table.Column{Name: "pad2", Type: table.Int64}, table.Column{Name: "pad3", Type: table.Int64}))
	rel.Grow(s.rows)
	for i := 0; i < s.rows; i++ {
		v := g.Next()
		if s.gen == genWide && i < 2 {
			// Both ends of the range, so the lanes' region is wide.
			v = min + int64(i)*(minSparseBins+int64(s.card)*wideStep-1)
		}
		rel.Append(table.Row{v, 0, 0, 0})
	}
	return rel
}

// FuzzServedScan serves one scan and one Stats read of a fuzzed relation
// shape, fault-free, and holds them to the product's invariants: the bytes
// delivered are storage's; the scan is refreshed and not degraded; the
// hardware profile's cycles add up to the scan arithmetic's
// (streamhist_hwprof_consistency reads 1); the served histogram equals the
// serial stream.DataPath's, with equal sketch bytes; and the serial
// histogram equals internal/hist's reference built from the column's values
// in the dense form. The shapes cover one-bin to widedomain-wide regions,
// sparse and dense lane regions, frames shorter and longer than a lane unit,
// last units cut short and lanes given nothing. Two seeds are the chaos
// matrix's shapes (TestChaosNoThirdOutcome) as near as a shape encodes
// them: a skewed column over 511 values rather than a Zipf one over 512.
func FuzzServedScan(f *testing.F) {
	perPage := page.New(servedShape{}.relation().Schema).Capacity()
	f.Add(servedShape{rows: maxServedRows, gen: genWide, card: 255, offset: 901, ppf: 64, lanes: 2, seed: 42}.encode())
	f.Add(servedShape{rows: perPage, gen: genSmall, card: 49, offset: 1, ppf: 16, lanes: 4, seed: 7}.encode())
	f.Add(servedShape{rows: 2*lanes.UnitPages*perPage + 1, gen: genHotspot, card: 200, offset: -5000, ppf: 20, lanes: 3, seed: 9, hotShift: 10}.encode())
	f.Add(servedShape{rows: 3000, gen: genSequential, card: 3, offset: -1, ppf: 2, lanes: 4, seed: 1}.encode())
	f.Add(servedShape{rows: 1, gen: genWide, card: 0, offset: 5, ppf: 1, lanes: 1, seed: 3}.encode())
	f.Add(servedShape{rows: 3000, gen: genHotspot, card: 255, ppf: 2, lanes: 4, seed: 7, hotShift: 1}.encode())
	f.Add(servedShape{rows: 11_000, gen: genHotspot, card: 255, ppf: 20, lanes: 4, seed: 7, hotShift: 1}.encode())
	f.Fuzz(func(t *testing.T, in []byte) {
		shape := decodeShape(in)
		rel := shape.relation()
		want, err := io.ReadAll(stream.NewPagesReader(rel))
		if err != nil {
			t.Fatal(err)
		}

		srv := server.New(server.Config{PagesPerFrame: int(shape.ppf), ShardLanes: int(shape.lanes)})
		defer srv.Close()
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(srv)
		defer c.Close()
		var got bytes.Buffer
		sum, err := c.Scan("fuzz", "v", &got)
		if err != nil {
			t.Fatalf("%+v: scan: %v", shape, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%+v: delivered bytes differ from storage", shape)
		}
		if !sum.Refreshed || sum.Degraded || sum.Rows != uint64(shape.rows) {
			t.Fatalf("%+v: fault-free scan summary %+v", shape, sum)
		}
		if v := expoValue(t, scrapeMetrics(t, srv), "streamhist_hwprof_consistency"); v != 1 {
			t.Fatalf("%+v: streamhist_hwprof_consistency = %v, want 1", shape, v)
		}
		st, err := c.Stats("fuzz", "v")
		if err != nil {
			t.Fatalf("%+v: stats: %v", shape, err)
		}

		dp, err := stream.NewDataPath(rel, "v", stream.GigabitEthernet)
		if err != nil {
			t.Fatal(err)
		}
		dp.Sketch = sketch.DefaultChainSpec()
		serial, err := dp.Scan(io.Discard, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Histogram.Equal(serial.Results.Compressed) {
			t.Fatalf("%+v: served histogram differs from the serial data path's", shape)
		}
		served, err := sketch.EncodeBlocks(st.Sketches)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sketch.EncodeBlocks(serial.Results.Sketches)
		if err != nil {
			t.Fatal(err)
		}
		if len(served) != len(ref) {
			t.Fatalf("%+v: %d sketch blocks served, %d serial", shape, len(served), len(ref))
		}
		for k := range ref {
			if !bytes.Equal(served[k], ref[k]) {
				t.Fatalf("%+v: sketch block %d differs from the serial data path's", shape, k)
			}
		}
		truth := bins.Build(rel.ColumnByName("v"), 1)
		if !serial.Results.Compressed.Equal(hist.BuildCompressed(truth, dp.Config.CompressedT, dp.Config.CompressedBuckets)) {
			t.Fatalf("%+v: serial histogram differs from the reference", shape)
		}
	})
}
