package hw

import (
	"math/rand"
	"testing"

	"streamhist/internal/faults"
)

// Every single-bit flip of every tested word must be corrected to the
// original, and every double-bit flip must be detected as uncorrectable.
func TestECCSingleAndDoubleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []uint64{0, 1, ^uint64(0), 0x8000000000000000, 42}
	for i := 0; i < 50; i++ {
		words = append(words, rng.Uint64())
	}
	for _, w := range words {
		ecc := ECCEncode(w)
		if got, status := ECCCorrect(w, ecc); status != ECCOK || got != w {
			t.Fatalf("clean word %#x reported status %d", w, status)
		}
		for bit := 0; bit < 64; bit++ {
			flipped := w ^ 1<<bit
			got, status := ECCCorrect(flipped, ecc)
			if status != ECCCorrected || got != w {
				t.Fatalf("single flip of bit %d in %#x: status %d, got %#x", bit, w, status, got)
			}
		}
		for i := 0; i < 64; i++ {
			a, b := rng.Intn(64), rng.Intn(64)
			if a == b {
				continue
			}
			flipped := w ^ 1<<a ^ 1<<b
			if _, status := ECCCorrect(flipped, ecc); status != ECCUncorrectable {
				t.Fatalf("double flip (%d,%d) of %#x not detected", a, b, w)
			}
		}
	}
}

// Without an injector the memory is a plain counter array.
func TestMemoryFaultFree(t *testing.T) {
	m := NewMemory(16, nil)
	for i := 0; i < 1000; i++ {
		if spike := m.Increment(int64(i % 16)); spike != 0 {
			t.Fatalf("spike %d cycles with no injector", spike)
		}
	}
	counts := m.Counts()
	for i, c := range counts {
		if c != 1000/16+map[bool]int64{true: 1, false: 0}[i < 1000%16] {
			t.Fatalf("bin %d = %d", i, c)
		}
	}
	if m.Corrected() != 0 || m.Quarantined() != 0 {
		t.Fatal("fault counters moved without faults")
	}
}

// Read-path upsets are transient: ECC corrects every one, so the final
// counts are exact and only the corrected counter moves.
func TestMemoryReadFlipsAlwaysCorrected(t *testing.T) {
	inj := faults.New(7, faults.Profile{faults.MemReadFlip: 0.5})
	m := NewMemory(8, inj)
	const n = 4000
	for i := 0; i < n; i++ {
		m.Increment(int64(i % 8))
	}
	var total int64
	for _, c := range m.Counts() {
		total += c
	}
	if total != n {
		t.Fatalf("total %d after read flips, want %d (reads are transient)", total, n)
	}
	if m.Corrected() == 0 {
		t.Fatal("no corrections despite 50% read-flip rate")
	}
	if m.Quarantined() != 0 {
		t.Fatalf("%d quarantined words from read flips", m.Quarantined())
	}
}

// Write-path upsets either correct (single-bit) or quarantine (double-bit):
// the final counts are never silently wrong — total counted plus lost mass
// accounts for every increment, and any shortfall is flagged.
func TestMemoryWriteFlipsNeverSilentlyWrong(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		inj := faults.New(seed, faults.Profile{faults.MemWriteFlip: 0.05})
		m := NewMemory(4, inj)
		const n = 2000
		for i := 0; i < n; i++ {
			m.Increment(int64(i % 4))
		}
		var total int64
		for _, c := range m.Counts() {
			if c < 0 {
				t.Fatalf("seed %d: negative bin count %d", seed, c)
			}
			total += c
		}
		if total > n {
			t.Fatalf("seed %d: total %d exceeds pushed %d", seed, total, n)
		}
		if total < n && m.Quarantined() == 0 {
			t.Fatalf("seed %d: lost %d increments with no quarantine reported", seed, n-total)
		}
		if total == n && m.Quarantined() != 0 {
			// A quarantine zeroes a nonzero bin, so mass must be missing.
			// (The bins here are hot, so a quarantined bin had real mass.)
			t.Fatalf("seed %d: quarantine reported but no mass lost", seed)
		}
	}
}

// Latency spikes surface as extra cycles and touch nothing else.
func TestMemoryLatencySpikes(t *testing.T) {
	inj := faults.New(3, faults.Profile{faults.MemLatencySpike: 1.0})
	m := NewMemory(2, inj)
	for i := 0; i < 100; i++ {
		if s := m.Increment(0); s <= 0 {
			t.Fatal("rate-1.0 spike point produced no spike")
		}
	}
	if got := m.Counts()[0]; got != 100 {
		t.Fatalf("spikes corrupted counts: %d", got)
	}
}
