package hw

import "streamhist/internal/faults"

// Memory models the off-chip bin region as an addressable array of 64-bit
// counters protected by SEC-DED check bits, with optional fault injection.
// It exists for the chaos path: when no injector is wired the Binner keeps
// its direct array updates, and when one is wired every increment goes
// through this model so that injected upsets are either corrected (single
// bit flips — the histogram stays exact) or detected and quarantined
// (multi-bit flips — the bin is zeroed and counted, so the histogram is
// explicitly Degraded rather than silently wrong). Injected latency spikes
// surface as extra cycles for the caller's completion-time accounting.
type Memory struct {
	words []int64
	ecc   []uint8
	inj   *faults.Injector

	corrected   int64
	quarantined int64

	events MemEvents
}

// NewMemory builds a zeroed, ECC-clean memory of n words. The injector may
// be nil (no faults ever fire).
func NewMemory(n int, inj *faults.Injector) *Memory {
	m := &Memory{
		words: make([]int64, n),
		ecc:   make([]uint8, n),
		inj:   inj,
	}
	clean := ECCEncode(0)
	for i := range m.ecc {
		m.ecc[i] = clean
	}
	return m
}

// scrubWord verifies one resident word, correcting what ECC can correct and
// zero-quarantining what it cannot. It returns the trustworthy value.
func (m *Memory) scrubWord(addr int64) int64 {
	w, status := ECCCorrect(uint64(m.words[addr]), m.ecc[addr])
	switch status {
	case ECCCorrected:
		m.noteCorrected()
		m.words[addr] = int64(w)
	case ECCUncorrectable:
		// The count is unrecoverable; zero the bin so downstream consumers
		// see a well-formed (if incomplete) view, and count the loss.
		m.noteQuarantined()
		m.words[addr] = 0
		m.ecc[addr] = ECCEncode(0)
		return 0
	}
	return int64(w)
}

func (m *Memory) noteCorrected() {
	m.corrected++
	if m.events.Corrected != nil {
		m.events.Corrected.Add(1)
	}
}

func (m *Memory) noteQuarantined() {
	m.quarantined++
	if m.events.Quarantined != nil {
		m.events.Quarantined.Add(1)
	}
}

// Increment performs the read-modify-write of one binning update, applying
// any injected faults, and returns the extra cycles of an injected latency
// spike (0 almost always).
func (m *Memory) Increment(addr int64) (spike int64) {
	if m.inj.Should(faults.MemLatencySpike) {
		// A spike stretches the access by 1–10× the nominal latency.
		spike = DefaultMemLatencyCycles * (1 + m.inj.Intn(faults.MemLatencySpike, 10))
		if m.events.SpikeCycles != nil {
			m.events.SpikeCycles.Add(spike)
		}
	}

	// Read path: a transient upset flips a bit of the data as it crosses
	// the channel; the stored copy is intact, so ECC always corrects it.
	w := m.words[addr]
	if m.inj.Should(faults.MemReadFlip) {
		w = int64(uint64(w) ^ 1<<uint(m.inj.Intn(faults.MemReadFlip, 64)))
	}
	fixed, status := ECCCorrect(uint64(w), m.ecc[addr])
	switch status {
	case ECCCorrected:
		m.noteCorrected()
	case ECCUncorrectable:
		m.noteQuarantined()
		fixed = 0
	}

	v := int64(fixed) + 1
	m.words[addr] = v
	m.ecc[addr] = ECCEncode(uint64(v))

	// Write path: a persistent upset lands in the stored cell after the
	// check bits were computed. Singles are corrected on the next touch of
	// the word (or the final scrub); occasionally the upset takes two bits,
	// which is detectable but not correctable.
	if m.inj.Should(faults.MemWriteFlip) {
		flipped := uint64(v) ^ 1<<uint(m.inj.Intn(faults.MemWriteFlip, 64))
		if m.inj.Intn(faults.MemWriteFlip, 4) == 0 { // 1-in-4 upsets are double-bit
			flipped ^= 1 << uint(m.inj.Intn(faults.MemWriteFlip, 64))
		}
		m.words[addr] = int64(flipped)
	}
	return spike
}

// Counts scrubs the whole memory — the ECC pass a controller would run
// before handing the region to the histogram chain — and returns the
// per-word counters. Corrupt words found here are corrected or
// quarantined exactly as on the read path. The returned slice is the
// memory's own storage.
func (m *Memory) Counts() []int64 {
	for addr := range m.words {
		m.scrubWord(int64(addr))
	}
	return m.words
}

// Corrected returns how many single-bit upsets ECC has repaired.
func (m *Memory) Corrected() int64 { return m.corrected }

// Quarantined returns how many words were lost to uncorrectable upsets.
func (m *Memory) Quarantined() int64 { return m.quarantined }
