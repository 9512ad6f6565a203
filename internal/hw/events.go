package hw

// Adder receives monotonically increasing event deltas. It is the narrow
// waist between the hardware model and whatever observability layer is
// listening (internal/obs counters satisfy it); hw stays free of any
// dependency on the metrics code. A nil Adder field means nobody is
// listening — every bump site checks for nil.
type Adder interface {
	Add(delta int64)
}

// MemEvents is the set of live event sinks a Memory reports into as faults
// are handled, in addition to its own cumulative accessors (Corrected,
// Quarantined). The accessors answer "what happened to this
// scan's bin region"; the sinks feed process-lifetime totals a monitoring
// scrape can watch move in real time. Zero value: no reporting.
type MemEvents struct {
	// Corrected receives 1 per single-bit upset ECC repaired.
	Corrected Adder
	// Quarantined receives 1 per word lost to an uncorrectable upset.
	Quarantined Adder
	// SpikeCycles receives the extra cycles of each injected latency spike.
	SpikeCycles Adder
}

// SetEvents wires live event sinks into the memory. Safe to leave unset.
func (m *Memory) SetEvents(ev MemEvents) {
	if m == nil {
		return
	}
	m.events = ev
}
