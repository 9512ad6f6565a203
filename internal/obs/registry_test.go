package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("streamhist_test_total", "help")
	b := r.Counter("streamhist_test_total", "other help ignored")
	if a != b {
		t.Fatal("second registration of the same counter returned a different instrument")
	}
	a.Add(3)
	b.Inc()
	if got := a.Value(); got != 4 {
		t.Fatalf("shared counter = %d, want 4", got)
	}

	g := r.Gauge("streamhist_test_gauge", "")
	if g2 := r.Gauge("streamhist_test_gauge", ""); g2 != g {
		t.Fatal("gauge get-or-create returned a different instrument")
	}
	d := r.Distribution("streamhist_test_seconds", "", 1e-9)
	if d2 := r.Distribution("streamhist_test_seconds", "", 123); d2 != d {
		t.Fatal("distribution get-or-create returned a different instrument")
	}
	if d.scale != 1e-9 {
		t.Fatalf("scale = %v, want the first registration's 1e-9", d.scale)
	}
}

func TestRegistryLabeledNamesAreDistinct(t *testing.T) {
	r := NewRegistry()
	l0 := r.Gauge(`lane_cycles{lane="0"}`, "")
	l1 := r.Gauge(`lane_cycles{lane="1"}`, "")
	if l0 == l1 {
		t.Fatal("different label sets shared an instrument")
	}
	l0.Set(7)
	l1.Set(9)
	if l0.Value() != 7 || l1.Value() != 9 {
		t.Fatal("labeled gauges shared state")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("streamhist_mixed", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("streamhist_mixed", "")
}

func TestRegistryBadNamesPanic(t *testing.T) {
	bad := []string{
		"",                   // empty
		"9starts_with_digit", // leading digit
		"has-dash",           // illegal rune
		"ok{",                // unterminated label block
		"ok{}",               // empty label block
		`ok{lane=3}`,         // unquoted value
		`ok{=three}`,         // missing label name
		`ok{la-ne="3"}`,      // bad label name
		`ok{lane="3"}extra`,  // trailing junk after the block
		`ok{lane:sep="3"}`,   // colon not allowed in label names
	}
	r := NewRegistry()
	for _, name := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestLabelValueEscaping(t *testing.T) {
	raw := "a\"b\\c\nd"
	esc := LabelValue(raw)
	if want := `a\"b\\c\nd`; esc != want {
		t.Fatalf("LabelValue(%q) = %q, want %q", raw, esc, want)
	}
	// The escaped value must register and expose cleanly.
	r := NewRegistry()
	r.Counter(`streamhist_escaped_total{path="`+esc+`"}`, "").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition([]byte(sb.String())); err != nil {
		t.Fatalf("escaped label broke the exposition: %v", err)
	}
	// Published escaped once: the way every caller formats a label value
	// ("%s" between literal quotes) must not escape the escapes again.
	if want := `path="a\"b\\c\nd"`; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition lacks %s:\n%s", want, sb.String())
	}
	if got := fmt.Sprintf(`m{l="%s"}`, LabelValue(`a"b`)); got != `m{l="a\"b"}` {
		t.Fatalf("label formatted as %s", got)
	}
}

func TestGaugeFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("streamhist_fn", "", func() float64 { return 1 })
	r.GaugeFunc("streamhist_fn", "", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "streamhist_fn 2\n") {
		t.Fatalf("re-registered GaugeFunc did not win:\n%s", sb.String())
	}
}

// TestRegistryReRegisterAllocsNothing: getting an existing labelled
// instrument again is a lookup, not a parse — a per-scan get-or-create must
// not allocate.
func TestRegistryReRegisterAllocsNothing(t *testing.T) {
	r := NewRegistry()
	const name = `streamhist_test_lane_cycles{lane="3",stage="read"}`
	g := r.Gauge(name, "help")
	if n := testing.AllocsPerRun(100, func() {
		if r.Gauge(name, "help") != g {
			t.Fatal("re-registration returned a different gauge")
		}
	}); n != 0 {
		t.Fatalf("re-registering a labelled gauge made %v allocs, want 0", n)
	}
}

// TestGaugeFuncsFamily: a computed family yields one sample per label set
// under one HELP/TYPE header at every read, the timeline's Samples included,
// and a family that yields nothing leaves no header behind.
func TestGaugeFuncsFamily(t *testing.T) {
	r := NewRegistry()
	var sets []string
	r.GaugeFuncs("streamhist_fam", "family help", func(emit func(string, float64)) {
		for i, l := range sets {
			emit(l, float64(i+1)*1e7)
		}
	})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if strings.Contains(sb.String(), "streamhist_fam") {
		t.Fatalf("empty family exposed:\n%s", sb.String())
	}
	sets = []string{`stage="a"`, `stage="b"`}
	sb.Reset()
	r.WritePrometheus(&sb)
	want := "# HELP streamhist_fam family help\n# TYPE streamhist_fam gauge\n" +
		"streamhist_fam{stage=\"a\"} 10000000\nstreamhist_fam{stage=\"b\"} 20000000\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
	if err := ValidateExposition([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	got := r.Samples(nil)
	if len(got) != 2 || got[1].Name != `streamhist_fam{stage="b"}` || got[1].Value != 2e7 || got[1].Kind != SampleGauge {
		t.Fatalf("samples = %+v", got)
	}
}

func TestCounterRejectsNegativeDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("streamhist_mono_total", "")
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after negative add = %d, want 5", got)
	}
	g := r.Gauge("streamhist_updown", "")
	g.Add(5)
	g.Add(-3)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after negative add = %d, want 2", got)
	}
}

// TestNilSafety pins the contract the whole codebase leans on: a nil
// registry hands out nil instruments and every operation on them (and on nil
// traces) is a no-op, so instrumented components never guard.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	d := r.Distribution("x", "", 1)
	if c != nil || g != nil || d != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	d.Observe(1)
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || d.Count() != 0 || d.Sum() != 0 {
		t.Fatal("nil instruments reported nonzero values")
	}
	if d.Histogram() != nil {
		t.Fatal("nil distribution produced a histogram")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}

	var tr *Tracer
	var tt *ScanRecord
	tt.End(tt.Begin("x"), 1)
	tt.AddSpan("x", 0, 0, 0, 0, false)
	tr.Publish(tt)
	tr.Publish(StartScan(1, "server", "t", "c", 4))
	if tr.Recent(4) != nil {
		t.Fatal("nil tracer reported published traces")
	}

	var o *Obs
	o.Publish(tt)
	live := StartScan(2, "client", "t", "c", 4)
	live.Begin("scan")
	o.Publish(live)
	if live.WallNS <= 0 || live.Spans[0].DurNS <= 0 {
		t.Fatalf("nil Obs did not finalise the record: %+v", live)
	}
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil Obs handed out live facilities")
	}
	o.Logger().Info("dropped")
}
