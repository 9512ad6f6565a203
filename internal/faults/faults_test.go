package faults

import (
	"sync"
	"testing"
)

// A nil injector must be safe at every entry point and never fire.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Should(PageCorrupt) {
		t.Fatal("nil injector fired")
	}
	if got := in.Intn(PageCorrupt, 100); got != 0 {
		t.Fatalf("nil Intn = %d, want 0", got)
	}
	if in.Fork("lane-0") != nil {
		t.Fatal("nil Fork should stay nil")
	}
	if in.TotalHits(PageCorrupt) != 0 {
		t.Fatal("nil injector reported activity")
	}
}

// The same seed must reproduce the exact per-point decision sequence.
func TestDeterministicSequences(t *testing.T) {
	profile := Profile{PageCorrupt: 0.3, LanePanic: 0.1}
	run := func() ([]bool, []int64) {
		in := New(42, profile)
		var fires []bool
		var params []int64
		for i := 0; i < 200; i++ {
			fires = append(fires, in.Should(PageCorrupt))
			params = append(params, in.Intn(LanePanic, 64))
		}
		return fires, params
	}
	f1, p1 := run()
	f2, p2 := run()
	for i := range f1 {
		if f1[i] != f2[i] || p1[i] != p2[i] {
			t.Fatalf("run diverged at step %d", i)
		}
	}
}

// Decisions at one point must not perturb another point's stream: the
// PageCorrupt sequence is identical whether or not LanePanic is also being
// consulted in between.
func TestPointStreamsAreIndependent(t *testing.T) {
	profile := Profile{PageCorrupt: 0.5, LanePanic: 0.5}
	solo := New(7, profile)
	mixed := New(7, profile)
	for i := 0; i < 500; i++ {
		want := solo.Should(PageCorrupt)
		mixed.Should(LanePanic) // interleave traffic at another point
		if got := mixed.Should(PageCorrupt); got != want {
			t.Fatalf("PageCorrupt stream perturbed at step %d", i)
		}
	}
}

// Fork must produce children that are deterministic per label and diverge
// across labels.
func TestForkDeterminism(t *testing.T) {
	parent := New(99, Profile{LaneStall: 0.5})
	a1 := parent.Fork("lane-0")
	a2 := parent.Fork("lane-0")
	b := parent.Fork("lane-1")
	same, diff := true, true
	for i := 0; i < 256; i++ {
		x, y, z := a1.Should(LaneStall), a2.Should(LaneStall), b.Should(LaneStall)
		if x != y {
			same = false
		}
		if x != z {
			diff = false
		}
	}
	if !same {
		t.Fatal("same-label forks diverged")
	}
	if diff {
		t.Fatal("different-label forks produced identical sequences")
	}
}

// Observed rates must track configured rates, and rate 0 / rate 1 must be
// exact.
func TestRates(t *testing.T) {
	in := New(3, Profile{PageCorrupt: 0.25, ConnReset: 1.0})
	const n = 20000
	for i := 0; i < n; i++ {
		in.Should(PageCorrupt)
		if !in.Should(ConnReset) {
			t.Fatal("rate-1.0 point failed to fire")
		}
		if in.Should(LanePanic) { // absent from profile => rate 0
			t.Fatal("unconfigured point fired")
		}
	}
	got := float64(in.TotalHits(PageCorrupt)) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("observed rate %.3f for configured 0.25", got)
	}
	if in.TotalHits(ConnReset) != n || in.TotalHits(LanePanic) != 0 {
		t.Fatalf("hits %d at the rate-1 point, %d at the silent one; want %d and 0",
			in.TotalHits(ConnReset), in.TotalHits(LanePanic), n)
	}
}

func TestIntnBounds(t *testing.T) {
	in := New(11, nil)
	seen := make(map[int64]bool)
	for i := 0; i < 5000; i++ {
		v := in.Intn(MemWriteFlip, 8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("Intn covered %d of 8 values", len(seen))
	}
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if len(p) == 0 {
			t.Fatalf("profile %q is empty", name)
		}
		for pt, r := range p {
			if r <= 0 || r > 1 {
				t.Fatalf("profile %q: point %q has rate %g outside (0,1]", name, pt, r)
			}
		}
	}
	if _, err := ByName("no-such-profile"); err == nil {
		t.Fatal("unknown profile name did not error")
	}
}

// The injector is used from concurrent shard lanes; hammer it under -race.
func TestConcurrentUse(t *testing.T) {
	in := New(5, Profile{LaneStall: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				in.Should(LaneStall)
				in.Intn(LaneStall, 100)
			}
		}()
	}
	wg.Wait()
	// 16 000 draws at rate 0.5: the hit count is within 12 standard
	// deviations of 8 000 unless draws were lost or counted twice.
	if hits := in.TotalHits(LaneStall); hits < 7250 || hits > 8750 {
		t.Fatalf("hits = %d of 16000 draws at rate 0.5", hits)
	}
}
