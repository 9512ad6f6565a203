package hwprof

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var p *Profiler
	n := p.Node("lane0", "binner", "read", ReasonMemWait)
	if n != nil {
		t.Fatalf("nil profiler handed out a node")
	}
	n.Add(100)
	n.AddEvents(3)
	if got := n.Cycles(); got != 0 {
		t.Fatalf("nil node cycles = %d", got)
	}
	if got := p.TotalCycles(); got != 0 {
		t.Fatalf("nil profiler total = %d", got)
	}
	snap := p.Snapshot()
	if snap == nil || len(snap.Samples) != 0 {
		t.Fatalf("nil profiler snapshot = %+v", snap)
	}
}

func TestAccumulationAndSnapshot(t *testing.T) {
	p := New()
	read := p.Node("lane0", "binner", "read", ReasonMemWait)
	read.Add(100)
	read.Add(50)
	read.Add(0)  // ignored
	read.Add(-7) // ignored
	p.Node("lane0", "binner", "preprocess", ReasonCompute).Add(30)
	p.Node("lane0", "cache", "lookup", "hit").AddEvents(12)
	// Same stack registered twice must be the same bucket.
	p.Node("lane0", "binner", "read", ReasonMemWait).Add(20)

	if got := p.TotalCycles(); got != 200 {
		t.Fatalf("TotalCycles = %d, want 200", got)
	}
	snap := p.Snapshot()
	if len(snap.Samples) != 3 {
		t.Fatalf("snapshot has %d samples, want 3: %+v", len(snap.Samples), snap.Samples)
	}
	// Sorted by descending cycles.
	if snap.Samples[0].Cycles != 170 || snap.Samples[0].Stack[2] != "read" {
		t.Fatalf("heaviest sample = %+v", snap.Samples[0])
	}
	if got := snap.TotalCycles(); got != 200 {
		t.Fatalf("snapshot total = %d, want 200", got)
	}
	if got := snap.SubtreeCycles("lane0", "binner"); got != 200 {
		t.Fatalf("binner subtree = %d, want 200", got)
	}
	if got := snap.SubtreeCycles("lane1"); got != 0 {
		t.Fatalf("missing lane subtree = %d, want 0", got)
	}
	if lanes := snap.Lanes(); len(lanes) != 1 || lanes[0] != "lane0" {
		t.Fatalf("Lanes = %v", lanes)
	}
}

func TestSubDelta(t *testing.T) {
	p := New()
	n := p.Node("lane0", "binner", "write", ReasonMemWait)
	n.Add(100)
	before := p.Snapshot()
	n.Add(40)
	p.Node("merged", "chain", "scan", ReasonMemWait).Add(10)
	delta := p.Snapshot().Sub(before)
	if got := delta.TotalCycles(); got != 50 {
		t.Fatalf("delta total = %d, want 50", got)
	}
	if got := delta.SubtreeCycles("lane0"); got != 40 {
		t.Fatalf("delta lane0 = %d, want 40", got)
	}
	// An unchanged node disappears from the delta.
	p2 := New()
	p2.Node("lane0", "binner", "write", ReasonMemWait).Add(5)
	s := p2.Snapshot()
	if d := s.Sub(s); len(d.Samples) != 0 {
		t.Fatalf("self-delta kept samples: %+v", d.Samples)
	}
}

// TestTextRoundTrip: a profile survives the JSON form /debug/hwprof?format=json
// serves — it decodes back to the same profile — so the flat and tree text
// histcli renders from the decoded copy is the text the profile renders.
func TestTextRoundTrip(t *testing.T) {
	p := New()
	p.Node("lane0", "binner", "read", ReasonMemWait).Add(123)
	p.Node("lane1", "mem", "update", ReasonSpike).Add(60)
	ecc := p.Node("lane1", "mem", "update", ReasonECC)
	ecc.AddEvents(4)
	snap := p.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(&back, snap) {
		t.Fatalf("round trip:\n%+v\nwant:\n%+v", back, *snap)
	}
	for _, render := range []func(*Profile, io.Writer) error{
		func(p *Profile, w io.Writer) error { return p.WriteTop(w, 0) },
		(*Profile).WriteTree,
	} {
		var want, got bytes.Buffer
		render(snap, &want)
		render(&back, &got)
		if got.String() != want.String() {
			t.Fatalf("rendered after the round trip:\n%s\nwant:\n%s", got.String(), want.String())
		}
	}
	for _, key := range []string{`"time_nanos"`, `"duration_nanos"`, `"samples"`, `"stack"`, `"cycles"`, `"events"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON lacks %s: %s", key, data)
		}
	}
}

func TestRenderers(t *testing.T) {
	p := New()
	p.Node("lane0", "binner", "preprocess", ReasonCompute).Add(700)
	p.Node("lane0", "binner", "write", ReasonMemWait).Add(300)
	p.Node("merged", "aggregate", "fanin", ReasonAgg).Add(50)
	snap := p.Snapshot()

	var top bytes.Buffer
	if err := snap.WriteTop(&top, 2); err != nil {
		t.Fatal(err)
	}
	out := top.String()
	if !strings.Contains(out, "total: 1050 simulated cycles") {
		t.Fatalf("top missing total:\n%s", out)
	}
	if !strings.Contains(out, "lane0;binner;preprocess;compute") {
		t.Fatalf("top missing heaviest stack:\n%s", out)
	}
	if !strings.Contains(out, "... 1 more nodes") {
		t.Fatalf("top missing truncation note:\n%s", out)
	}

	var tree bytes.Buffer
	if err := snap.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	tout := tree.String()
	for _, want := range []string{"total: 1050", "lane0", "binner", "1000 cycles", "aggregation"} {
		if !strings.Contains(tout, want) {
			t.Fatalf("tree missing %q:\n%s", want, tout)
		}
	}
}

// decodedProfile is the subset of the pprof message the structural test
// checks: a real decode of our own wire bytes with an independent minimal
// proto reader, so an encoder bug cannot hide behind its own decoder.
type decodedProfile struct {
	strings      []string
	sampleTypes  [][2]int64 // (type idx, unit idx)
	samples      []decodedSample
	locations    map[uint64]uint64 // location id -> function id
	functions    map[uint64]int64  // function id -> name string idx
	defaultType  int64
	periodTypeOK bool
}

type decodedSample struct {
	locs   []uint64
	values []int64
}

func decodePprof(t *testing.T, raw []byte) *decodedProfile {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	dp := &decodedProfile{locations: map[uint64]uint64{}, functions: map[uint64]int64{}}
	walkFields(t, body, func(field int, wire int, num uint64, buf []byte) {
		switch field {
		case profStringTable:
			dp.strings = append(dp.strings, string(buf))
		case profSampleType:
			var typ, unit int64
			walkFields(t, buf, func(f, w int, n uint64, b []byte) {
				if f == vtType {
					typ = int64(n)
				}
				if f == vtUnit {
					unit = int64(n)
				}
			})
			dp.sampleTypes = append(dp.sampleTypes, [2]int64{typ, unit})
		case profSample:
			var s decodedSample
			walkFields(t, buf, func(f, w int, n uint64, b []byte) {
				switch f {
				case smLocationID:
					s.locs = unpackUints(t, b)
				case smValue:
					for _, u := range unpackUints(t, b) {
						s.values = append(s.values, int64(u))
					}
				}
			})
			dp.samples = append(dp.samples, s)
		case profLocation:
			var id, fid uint64
			walkFields(t, buf, func(f, w int, n uint64, b []byte) {
				switch f {
				case locID:
					id = n
				case locLine:
					walkFields(t, b, func(f2, w2 int, n2 uint64, b2 []byte) {
						if f2 == lineFunctionID {
							fid = n2
						}
					})
				}
			})
			dp.locations[id] = fid
		case profFunction:
			var id uint64
			var name int64
			walkFields(t, buf, func(f, w int, n uint64, b []byte) {
				switch f {
				case fnID:
					id = n
				case fnName:
					name = int64(n)
				}
			})
			dp.functions[id] = name
		case profDefaultType:
			dp.defaultType = int64(num)
		case profPeriodType:
			dp.periodTypeOK = true
		}
	})
	return dp
}

// walkFields iterates the top-level fields of one protobuf message.
func walkFields(t *testing.T, b []byte, fn func(field, wire int, num uint64, buf []byte)) {
	t.Helper()
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			t.Fatalf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				t.Fatalf("bad varint in field %d", field)
			}
			b = b[n:]
			fn(field, wire, v, nil)
		case 2:
			l, n := uvarint(b)
			if n <= 0 || int(l) > len(b[n:]) {
				t.Fatalf("bad length in field %d", field)
			}
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
}

func unpackUints(t *testing.T, b []byte) []uint64 {
	t.Helper()
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			t.Fatalf("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

func TestPprofWireFormat(t *testing.T) {
	p := New()
	p.Node("lane0", "binner", "read", ReasonMemWait).Add(400)
	p.Node("lane0", "binner", "preprocess", ReasonCompute).Add(100)
	spike := p.Node("lane1", "mem", "update", ReasonSpike)
	spike.Add(66)
	spike.AddEvents(2)
	snap := p.Snapshot()

	var buf bytes.Buffer
	if err := snap.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	dp := decodePprof(t, buf.Bytes())

	if len(dp.strings) == 0 || dp.strings[0] != "" {
		t.Fatalf("string table must start with the empty string: %q", dp.strings)
	}
	str := func(idx int64) string {
		if idx < 0 || int(idx) >= len(dp.strings) {
			t.Fatalf("string index %d out of range (%d strings)", idx, len(dp.strings))
		}
		return dp.strings[idx]
	}
	if len(dp.sampleTypes) != 2 || str(dp.sampleTypes[0][0]) != "events" || str(dp.sampleTypes[1][0]) != "cycles" {
		t.Fatalf("sample types = %v (%q)", dp.sampleTypes, dp.strings)
	}
	if str(dp.sampleTypes[1][1]) != "count" {
		t.Fatalf("cycles unit = %q", str(dp.sampleTypes[1][1]))
	}
	if str(dp.defaultType) != "cycles" {
		t.Fatalf("default sample type = %q, want cycles", str(dp.defaultType))
	}
	if !dp.periodTypeOK {
		t.Fatal("period type missing")
	}
	if len(dp.samples) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(dp.samples))
	}

	// Re-derive (stack -> values) through locations+functions and compare
	// against the snapshot. Location IDs must resolve leaf-first.
	got := map[string][2]int64{}
	var totalCycles int64
	for _, s := range dp.samples {
		if len(s.values) != 2 {
			t.Fatalf("sample has %d values, want 2", len(s.values))
		}
		frames := make([]string, 0, len(s.locs))
		for i := len(s.locs) - 1; i >= 0; i-- { // leaf-first -> outermost-first
			fid, ok := dp.locations[s.locs[i]]
			if !ok {
				t.Fatalf("sample references unknown location %d", s.locs[i])
			}
			nameIdx, ok := dp.functions[fid]
			if !ok {
				t.Fatalf("location %d references unknown function %d", s.locs[i], fid)
			}
			frames = append(frames, str(nameIdx))
		}
		got[strings.Join(frames, ";")] = [2]int64{s.values[0], s.values[1]}
		totalCycles += s.values[1]
	}
	for _, s := range snap.Samples {
		key := strings.Join(s.Stack, ";")
		v, ok := got[key]
		if !ok {
			t.Fatalf("stack %q missing from wire profile (have %v)", key, got)
		}
		if v[0] != s.Events || v[1] != s.Cycles {
			t.Fatalf("stack %q decoded as events=%d cycles=%d, want %d/%d", key, v[0], v[1], s.Events, s.Cycles)
		}
	}
	if totalCycles != snap.TotalCycles() {
		t.Fatalf("wire total %d != snapshot total %d", totalCycles, snap.TotalCycles())
	}
}

func TestPprofEmptyProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Profile{}).WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	dp := decodePprof(t, buf.Bytes())
	if len(dp.samples) != 0 {
		t.Fatalf("empty profile decoded %d samples", len(dp.samples))
	}
	if len(dp.sampleTypes) != 2 {
		t.Fatalf("empty profile lost its sample types")
	}
}

func TestConcurrentAdds(t *testing.T) {
	p := New()
	const workers, perWorker = 8, 10000
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			n := p.Node(fmt.Sprintf("lane%d", w%2), "binner", "write", ReasonMemWait)
			for i := 0; i < perWorker; i++ {
				n.Add(1)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := p.TotalCycles(); got != workers*perWorker {
		t.Fatalf("concurrent total = %d, want %d", got, workers*perWorker)
	}
}
