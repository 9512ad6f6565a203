package server_test

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/datagen"
	"streamhist/internal/faults"
	"streamhist/internal/hist"
	"streamhist/internal/server"
	"streamhist/internal/stream"
	"streamhist/internal/table"
)

// TestChaosNoThirdOutcome is the acceptance property of the whole fault
// posture, checked across every seeded profile:
//
//  1. Delivery is sacred: the pages the client sinks are byte-identical to
//     storage, whatever was injected.
//  2. Honesty is binary: a scan either completes Refreshed and not Degraded
//     with a histogram equal to the fault-free run's, or it reports
//     Degraded with at least one nonzero cause counter (quarantined pages,
//     retired lanes, skipped tuples, client retries, or a skipped side
//     path). There is no third outcome — no silent corruption, no
//     unexplained degradation.
//
// By default a dozen seeds per profile keep the tier-1 run fast;
// STREAMHIST_CHAOS_SEEDS widens the sweep (CI runs 100 per profile) and
// STREAMHIST_CHAOS_PROFILE pins one profile for a matrix job.
func TestChaosNoThirdOutcome(t *testing.T) {
	checkNoThirdOutcome(t, 3000, 2)
}

// TestChaosNoThirdOutcomeWindows holds the same property where the side path
// assembles its units across frames: 20-page frames over 44 pages end
// mid-unit twice, so every unit but the first is completed from a later
// frame — its damage marks carried across, and cut short under the same
// fault points.
func TestChaosNoThirdOutcomeWindows(t *testing.T) {
	checkNoThirdOutcome(t, 11000, 20)
}

// checkNoThirdOutcome runs the chaos property over a rows-row relation served
// at ppf pages a frame.
func checkNoThirdOutcome(t *testing.T, rows, ppf int) {
	rel := testRelation(rows)
	want := storageBytes(t, rows)

	// Fault-free reference histogram for the exactness half of the property.
	ref := func() *hist.Histogram {
		srv := server.New(server.Config{})
		if err := srv.Register(testRelation(rows)); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		sum, err := c.Scan("synthetic", "c1", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Refreshed || sum.Degraded {
			t.Fatalf("fault-free scan not clean: %+v", sum)
		}
		st, err := c.Stats("synthetic", "c1")
		if err != nil {
			t.Fatal(err)
		}
		return st.Histogram
	}()

	seeds := 12
	if v := os.Getenv("STREAMHIST_CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("STREAMHIST_CHAOS_SEEDS=%q", v)
		}
		seeds = n
	}
	profiles := []string{
		faults.ProfileCorruptionHeavy,
		faults.ProfileLaneFailureHeavy,
		faults.ProfileNetworkFlaky,
	}
	if v := os.Getenv("STREAMHIST_CHAOS_PROFILE"); v != "" {
		profiles = []string{v}
	}

	for _, name := range profiles {
		profile, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				srv := server.NewForTest(server.Config{
					Faults:        faults.New(uint64(seed), profile),
					PagesPerFrame: ppf,
					ShardLanes:    4,
				}, server.TestConfig{SideStallTimeout: 50 * time.Millisecond})
				if err := srv.Register(rel); err != nil {
					t.Fatal(err)
				}
				c := pipeClient(srv)

				var got bytes.Buffer
				sum, err := c.Scan("synthetic", "c1", &got)
				if err != nil {
					t.Fatalf("seed %d: scan failed outright: %v", seed, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("seed %d: delivered bytes differ from storage", seed)
				}

				checkTwoOutcomes(t, "seed "+strconv.Itoa(seed), srv, c, sum, "synthetic", "c1", ref)
				c.Close()
				if err := srv.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
			}
		})
	}
}

// checkTwoOutcomes holds one served scan's summary to the property's second
// half: Refreshed and not Degraded with the catalog's histogram equal to
// ref, the fault-free one, or Degraded with a cause counter set and counted.
func checkTwoOutcomes(t *testing.T, label string, srv *server.Server, c *client.Client, sum *client.ScanSummary, tbl, col string, ref *hist.Histogram) {
	t.Helper()
	m := srv.Metrics()
	switch {
	case sum.Refreshed && !sum.Degraded:
		// Outcome A: every fault was masked; the histogram must be exactly
		// the fault-free one.
		st, err := c.Stats(tbl, col)
		if err != nil {
			t.Fatalf("%s: clean summary but no stats: %v", label, err)
		}
		if !st.Histogram.Equal(ref) {
			t.Fatalf("%s: undegraded histogram differs from fault-free run", label)
		}
	case sum.Degraded:
		// Outcome B: degradation with an attributed cause.
		cause := uint64(sum.QuarantinedPages) + uint64(sum.LanesRetired) +
			sum.SkippedTuples + uint64(sum.Retries) +
			uint64(m.SideSkipped) + uint64(m.PagesQuarantined) + uint64(m.LanesRetired)
		if cause == 0 {
			t.Fatalf("%s: Degraded with no cause counter set: %+v metrics %+v", label, sum, m)
		}
		if m.ScansDegraded == 0 {
			t.Fatalf("%s: degraded summary not counted in metrics", label)
		}
	default:
		t.Fatalf("%s: third outcome — not refreshed, not degraded: %+v", label, sum)
	}
}

// TestChaosWideColumnTwoOutcomes serves a column one bin wider than the
// widest region a lane keeps dense, so its fault-free scan bins in the
// sparse form, under the lane-failure profile. Any injector puts every lane
// on the ECC-checked memory model, which is dense, and the server replays
// nothing, so the sparse form meets faults here only as the reference: each
// scan must end in one of the two outcomes, an undegraded histogram equal to
// the sparse lanes' fault-free one. (The replay lane of
// stream.ParallelDataPath is where sparse lane regions meet retirements.)
// The model costs 9 B a bin a lane, so two lanes and a few seeds keep it to
// about 80 MB.
func TestChaosWideColumnTwoOutcomes(t *testing.T) {
	const rows, wide = 1500, 1<<22 + 1
	rel := table.NewRelation("wide", table.NewSchema(
		table.Column{Name: "v", Type: table.Int64}, table.Column{Name: "pad1", Type: table.Int64},
		table.Column{Name: "pad2", Type: table.Int64}, table.Column{Name: "pad3", Type: table.Int64}))
	rel.Grow(rows)
	rng := datagen.NewRNG(41)
	for i := 0; i < rows; i++ {
		v := int64(rng.Intn(wide))
		switch i {
		case 0:
			v = 0
		case 1:
			v = wide - 1
		}
		rel.Append(table.Row{v - 7, 0, 0, 0})
	}
	want, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		t.Fatal(err)
	}
	ref := func() *hist.Histogram {
		srv := server.New(server.Config{ShardLanes: 2})
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := pipeClient(srv)
		defer c.Close()
		if sum, err := c.Scan("wide", "v", io.Discard); err != nil || !sum.Refreshed || sum.Degraded {
			t.Fatalf("fault-free scan not clean: %+v, %v", sum, err)
		}
		st, err := c.Stats("wide", "v")
		if err != nil {
			t.Fatal(err)
		}
		return st.Histogram
	}()
	profile, err := faults.ByName(faults.ProfileLaneFailureHeavy)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[bool]int{}
	for seed := 0; seed < 8; seed++ {
		srv := server.NewForTest(server.Config{
			Faults:        faults.New(uint64(seed), profile),
			PagesPerFrame: 2,
			ShardLanes:    2,
		}, server.TestConfig{SideStallTimeout: 50 * time.Millisecond})
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
		c := pipeClient(srv)
		var got bytes.Buffer
		sum, err := c.Scan("wide", "v", &got)
		if err != nil {
			t.Fatalf("seed %d: scan failed outright: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("seed %d: delivered bytes differ from storage", seed)
		}
		checkTwoOutcomes(t, "seed "+strconv.Itoa(seed), srv, c, sum, "wide", "v", ref)
		outcomes[sum.Degraded]++
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
	t.Logf("clean %d, degraded %d", outcomes[false], outcomes[true])
}
