package dbms

import (
	"bytes"
	"testing"

	"streamhist/internal/sketch"
	"streamhist/internal/tpch"
)

// FuzzDecodeColumnStats feeds the catalog-entry decoder, which reads WAL put
// records, checkpoint files and (behind the wire's head) Stats replies,
// arbitrary bytes. It must decode or return an error, never panic, and an
// entry it accepts must be canonical: AppendColumnStats re-encodes it to
// exactly the bytes it consumed, and those are the entry's Encoded form.
func FuzzDecodeColumnStats(f *testing.F) {
	db := NewDatabase(DBx())
	rel := tpch.Lineitem(2_000, 1, 101)
	db.AddTable(rel)
	if _, err := db.GatherStats("lineitem", "l_quantity", 100, 103); err != nil {
		f.Fatal(err)
	}
	entry := *db.Catalog.Get("lineitem", "l_quantity")
	// The served chain's blocks, but a 16-entry window rather than 1 024:
	// 16 KiB of window entries would leave the fuzzer minimizing inputs
	// instead of running them.
	spec := sketch.DefaultChainSpec()
	spec.WindowW = 16
	chain := sketch.NewChain(spec)
	chain.PushAll(rel.ColumnByName("l_quantity"))
	entry.Sketches = chain.Blocks()
	for _, sketches := range []sketch.Blocks{entry.Sketches, nil} {
		entry.Sketches = sketches
		seed, err := AppendColumnStats(nil, &entry)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := DecodeColumnStats(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if !bytes.Equal(s.Encoded(), consumed) {
			t.Fatalf("Encoded() is %d bytes, the entry consumed %d", len(s.Encoded()), len(consumed))
		}
		re, err := AppendColumnStats(nil, s)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("accepted a non-canonical entry: consumed %d bytes, re-encoded %d", len(consumed), len(re))
		}
	})
}
