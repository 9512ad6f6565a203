package core

import (
	"fmt"
	"slices"
	"testing"

	"streamhist/internal/page"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

// FuzzParserFeed feeds arbitrary bytes through the page-parsing FSM in
// arbitrary chunkings. The parser must either produce values or return an
// error — never panic, never read out of bounds — because in deployment it
// watches a wire it does not control. Whatever the chunking, it yields what
// byte-at-a-time feeding (which never takes the whole-page fast path) yields:
// the same values and the same error.
func FuzzParserFeed(f *testing.F) {
	rel := tpch.Lineitem(50, 1, 71)
	for _, pg := range page.Encode(rel) {
		f.Add(pg.Bytes(), uint16(64))
	}
	f.Add([]byte{0xC5, 0xD0, 0xff, 0xff}, uint16(1))
	f.Add(make([]byte, page.Size), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		c := int(chunk)
		if c == 0 {
			c = 1
		}
		for _, typ := range []table.Type{table.Int64, table.Decimal, table.Date, table.DateUnpacked} {
			feed := func(c int) ([]int64, error) {
				p := NewParser(ColumnSpec{Offset: int(chunk) % 32, Type: typ})
				var out []int64
				var err error
				for off := 0; off < len(data) && err == nil; off += c {
					out, err = p.Feed(data[off:min(off+c, len(data))], out)
				}
				return out, err
			}
			out, err := feed(c)
			ref, refErr := feed(1)
			if !slices.Equal(out, ref) || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("type %v: chunks of %d gave %d values (err %v), single bytes %d (err %v)",
					typ, c, len(out), err, len(ref), refErr)
			}
		}
	})
}
