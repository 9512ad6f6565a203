package stream

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"

	"streamhist/internal/bins"
	"streamhist/internal/core"
	"streamhist/internal/hist"
	"streamhist/internal/page"
	"streamhist/internal/tpch"
)

func TestPagesReaderStreamsWholePages(t *testing.T) {
	rel := tpch.Lineitem(5000, 1, 1)
	r := NewPagesReader(rel)
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%page.Size != 0 {
		t.Errorf("stream length %d is not page-aligned", len(data))
	}
	// The stream must equal the concatenated page images.
	var want []byte
	for _, pg := range page.Encode(rel) {
		want = append(want, pg.Bytes()...)
	}
	if !bytes.Equal(data, want) {
		t.Error("stream differs from page images")
	}
}

func TestTapRelaysBytesUnchanged(t *testing.T) {
	// The central cut-through property: the host receives EXACTLY what
	// storage sent, regardless of what the side path does.
	rel := tpch.Lineitem(20000, 1, 2)
	var want []byte
	for _, pg := range page.Encode(rel) {
		want = append(want, pg.Bytes()...)
	}
	wantSum := sha256.Sum256(want)

	dp, err := NewDataPath(rel, "l_extendedprice", PCIeGen1x8)
	if err != nil {
		t.Fatal(err)
	}
	var host bytes.Buffer
	res, err := dp.Scan(&host, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostBytes != int64(len(want)) {
		t.Fatalf("host received %d bytes, want %d", res.HostBytes, len(want))
	}
	if sha256.Sum256(host.Bytes()) != wantSum {
		t.Fatal("host stream corrupted by the tap")
	}
}

func TestDataPathHistogramsMatchOffline(t *testing.T) {
	rel := tpch.Lineitem(15000, 1, 3)
	dp, err := NewDataPath(rel, "l_quantity", GigabitEthernet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dp.Scan(io.Discard, 8192)
	if err != nil {
		t.Fatal(err)
	}
	truth := bins.Build(rel.ColumnByName("l_quantity"), 1)
	want := hist.BuildEquiDepth(truth, 256)
	got := res.Results.EquiDepth
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("buckets %d != %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d differs", i)
		}
	}
	wantTop := hist.BuildTopK(truth, 64)
	for i := range wantTop {
		if res.Results.TopK[i] != wantTop[i] {
			t.Errorf("topk %d differs", i)
		}
	}
}

func TestDataPathChunkSizeIrrelevant(t *testing.T) {
	rel := tpch.Lineitem(8000, 1, 4)
	var ref *core.Results
	for _, chunk := range []int{1, 7, 512, 8192, 1 << 20} {
		dp, err := NewDataPath(rel, "l_quantity", GigabitEthernet)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dp.Scan(io.Discard, chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if ref == nil {
			ref = res.Results
			continue
		}
		if res.Results.Bins.Total() != ref.Bins.Total() {
			t.Fatalf("chunk %d: total %d != %d", chunk, res.Results.Bins.Total(), ref.Bins.Total())
		}
		for i := range ref.EquiDepth.Buckets {
			if res.Results.EquiDepth.Buckets[i] != ref.EquiDepth.Buckets[i] {
				t.Fatalf("chunk %d: bucket %d differs", chunk, i)
			}
		}
	}
}

func TestAcceleratorKeepsUpWithLinks(t *testing.T) {
	rel := tpch.Lineitem(30000, 1, 5)

	// Over 1 GbE the arrival rate on 64-byte rows is ~2 M rows/s: easy.
	dp, _ := NewDataPath(rel, "l_extendedprice", GigabitEthernet)
	res, err := dp.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AcceleratorKeptUp {
		t.Error("accelerator should keep up with 1GbE on 64-byte rows")
	}

	// A single-column table over 10 GbE arrives at 156 M values/s — far
	// beyond one worst-case Binner (this is exactly the §7 motivation for
	// replication).
	one := tpch.LineitemColumn("l_extendedprice", 30000, 1, 5)
	dp2, _ := NewDataPath(one, "l_extendedprice", TenGbE)
	res2, err := dp2.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.AcceleratorKeptUp {
		t.Error("a single binner cannot keep up with a 1-column table at 10GbE (that's what §7 replication is for)")
	}
	need := core.ReplicasForLineRate(LineRateGbpsOf(TenGbE, one.Schema.RowWidth()), 20e6)
	if need < 2 {
		t.Errorf("replica sizing says %d, expected several", need)
	}
}

// LineRateGbpsOf converts a link + row width to the single-column value
// rate in Gbps terms used by core.ReplicasForLineRate (values are 4 bytes).
func LineRateGbpsOf(l Link, rowWidth int) float64 {
	valuesPerSec := l.BytesPerSec / float64(rowWidth)
	return valuesPerSec * 4 * 8 / 1e9
}

func TestDataPathLatencyIndependentOfSize(t *testing.T) {
	small := tpch.Lineitem(1000, 1, 6)
	big := tpch.Lineitem(20000, 1, 6)
	dpS, _ := NewDataPath(small, "l_quantity", PCIeGen1x8)
	dpB, _ := NewDataPath(big, "l_quantity", PCIeGen1x8)
	rs, err := dpS.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dpB.Scan(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.AddedLatencySeconds != rb.AddedLatencySeconds {
		t.Error("added latency should not depend on table size")
	}
	if rb.TransferSeconds <= rs.TransferSeconds {
		t.Error("transfer time should grow with table size")
	}
	// The bump in the wire is orders of magnitude below the transfer.
	if rs.AddedLatencySeconds > rs.TransferSeconds/10 {
		t.Errorf("added latency %.2gs not negligible vs transfer %.2gs",
			rs.AddedLatencySeconds, rs.TransferSeconds)
	}
}

func TestNewDataPathValidation(t *testing.T) {
	rel := tpch.Lineitem(100, 1, 7)
	if _, err := NewDataPath(rel, "nope", GigabitEthernet); err == nil {
		t.Error("unknown column accepted")
	}
	empty := tpch.Lineitem(0, 1, 7)
	if _, err := NewDataPath(empty, "l_quantity", GigabitEthernet); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestTapFailsOpenOnCorruptStream(t *testing.T) {
	// A corrupt page must not disturb the host's stream: the side path
	// records the error, the relay keeps going.
	garbage := bytes.Repeat([]byte{0xAB}, 3*page.Size)
	pre, err := core.RangeFor(0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	binner := core.NewBinner(core.DefaultBinnerConfig(), pre)
	tap := NewTap(bytes.NewReader(garbage), core.ColumnSpec{Offset: 0, Type: 0}, binner)
	got, err := io.ReadAll(tap)
	if err != nil {
		t.Fatalf("host stream failed: %v", err)
	}
	if !bytes.Equal(got, garbage) {
		t.Fatal("host stream altered")
	}
	if tap.ParseErr() == nil {
		t.Error("side path should have recorded a parse error")
	}
}
