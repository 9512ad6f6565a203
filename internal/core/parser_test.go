package core

import (
	"testing"

	"streamhist/internal/datagen"
	"streamhist/internal/page"
	"streamhist/internal/table"
)

func parserSchema() *table.Schema {
	return table.NewSchema(
		table.Column{Name: "k", Type: table.Int64},
		table.Column{Name: "price", Type: table.Decimal, Scale: 2},
		table.Column{Name: "d", Type: table.Date},
		table.Column{Name: "od", Type: table.DateUnpacked},
	)
}

func parserRelation(rows int, seed uint64) *table.Relation {
	rel := table.NewRelation("t", parserSchema())
	rng := datagen.NewRNG(seed)
	for i := 0; i < rows; i++ {
		rel.Append(table.Row{
			rng.Int63n(1 << 30),
			rng.Int63n(1_000_000),
			rng.Int63n(25000),
			rng.Int63n(25000),
		})
	}
	return rel
}

func TestSpecFor(t *testing.T) {
	s := parserSchema()
	spec, err := SpecFor(s, "price")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Offset != 8 || spec.Type != table.Decimal {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := SpecFor(s, "missing"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestParserExtractsEveryColumn(t *testing.T) {
	rel := parserRelation(3000, 1)
	pages := page.Encode(rel)
	for ci, col := range rel.Schema.Columns {
		spec, err := SpecFor(rel.Schema, col.Name)
		if err != nil {
			t.Fatal(err)
		}
		p := NewParser(spec)
		got, err := p.ParsePages(pages)
		if err != nil {
			t.Fatalf("column %s: %v", col.Name, err)
		}
		want := rel.Column(ci)
		if len(got) != len(want) {
			t.Fatalf("column %s: %d values, want %d", col.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %s row %d: %d != %d", col.Name, i, got[i], want[i])
			}
		}
	}
}

func TestParserChunkedFeedingAnyBoundary(t *testing.T) {
	// The FSM must survive arbitrary chunk boundaries — single bytes,
	// prime-sized chunks, chunks spanning pages.
	rel := parserRelation(900, 2)
	pages := page.Encode(rel)
	var stream []byte
	for _, pg := range pages {
		stream = append(stream, pg.Bytes()...)
	}
	want := rel.ColumnByName("price")
	spec, _ := SpecFor(rel.Schema, "price")

	for _, chunk := range []int{1, 3, 7, 13, 101, 8191, 8192, 8193, 100000} {
		p := NewParser(spec)
		var got []int64
		var err error
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			got, err = p.Feed(stream[off:end], got)
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d values, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d row %d: %d != %d", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestParserFirstColumnAndLastColumn(t *testing.T) {
	// Offsets 0 and rowWidth-width exercise the psSkipPre/psSkipPost edges.
	rel := parserRelation(500, 3)
	pages := page.Encode(rel)
	for _, name := range []string{"k", "od"} {
		spec, _ := SpecFor(rel.Schema, name)
		p := NewParser(spec)
		got, err := p.ParsePages(pages)
		if err != nil {
			t.Fatal(err)
		}
		want := rel.ColumnByName(name)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: %d != %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestParserRejectsBadMagic(t *testing.T) {
	spec, _ := SpecFor(parserSchema(), "k")
	p := NewParser(spec)
	garbage := make([]byte, page.Size)
	if _, err := p.Feed(garbage, nil); err == nil {
		t.Error("garbage page accepted")
	}
}

func TestParserSingleColumnTable(t *testing.T) {
	// The Fig 17 one-column variant: column width == row width.
	sch := table.NewSchema(table.Column{Name: "v", Type: table.Int64})
	rel := table.NewRelation("one", sch)
	for i := int64(0); i < 5000; i++ {
		rel.Append(table.Row{i * 3})
	}
	spec, _ := SpecFor(sch, "v")
	p := NewParser(spec)
	got, err := p.ParsePages(page.Encode(rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000 {
		t.Fatalf("extracted %d values", len(got))
	}
	for i, v := range got {
		if v != int64(i)*3 {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

func TestParserEmptyStream(t *testing.T) {
	spec, _ := SpecFor(parserSchema(), "k")
	p := NewParser(spec)
	got, err := p.Feed(nil, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty feed: %v, %v", got, err)
	}
}
