package server_test

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/hist"
	"streamhist/internal/server"
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

				m := srv.Metrics()
				switch {
				case sum.Refreshed && !sum.Degraded:
					// Outcome A: every fault was masked; the histogram
					// must be exactly the fault-free one.
					st, err := c.Stats("synthetic", "c1")
					if err != nil {
						t.Fatalf("seed %d: clean summary but no stats: %v", seed, err)
					}
					if !st.Histogram.Equal(ref) {
						t.Fatalf("seed %d: undegraded histogram differs from fault-free run", seed)
					}
				case sum.Degraded:
					// Outcome B: degradation with an attributed cause.
					cause := uint64(sum.QuarantinedPages) + uint64(sum.LanesRetired) +
						sum.SkippedTuples + uint64(sum.Retries) +
						uint64(m.SideSkipped) + uint64(m.PagesQuarantined) + uint64(m.LanesRetired)
					if cause == 0 {
						t.Fatalf("seed %d: Degraded with no cause counter set: %+v metrics %+v", seed, sum, m)
					}
					if m.ScansDegraded == 0 {
						t.Fatalf("seed %d: degraded summary not counted in metrics", seed)
					}
				default:
					t.Fatalf("seed %d: third outcome — not refreshed, not degraded: %+v", seed, sum)
				}

				c.Close()
				if err := srv.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
			}
		})
	}
}
