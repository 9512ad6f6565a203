package hw

// Cache models the small on-chip write-through cache of §5.1.3. Its job in
// the hardware is to forward the values of recently accessed memory lines
// between pipeline stages so that "read after write" conflicts never stall
// the binning pipeline, making throughput independent of data skew.
//
// The cache stores whole memory lines in a block RAM indexed through a
// lookup table of line addresses — modelled here as a fixed-size
// FIFO-replacement table, which matches the hardware's "items currently in
// the pipeline" framing (the set of recently touched lines within the
// memory-latency window).
//
// Residence is a flat byte table indexed by line address over the line
// universe the caller declares, and the FIFO is a fixed ring: no allocation
// and no hashing per access. One byte per line is an eighth of a byte per
// bin at eight bins per line — beside a bin region that costs four bytes
// per bin on the host it never decides whether a geometry fits in memory.
type Cache struct {
	lines int

	// ring is the FIFO of resident line addresses, a fixed circular buffer
	// of capacity lines; head is the oldest entry once full.
	ring []int64
	head int

	// resident[line] is non-zero while the line is in the ring.
	resident []uint8

	hits   int64
	misses int64

	// Every lookup writes the fields above. The pad makes a Cache two whole
	// host cache lines, and NewCache makes its tables whole lines, so that
	// the caches of two binner lanes never share one (see bins.Vector).
	_ [48]byte
}

// hostLine is the host's cache-line size in bytes.
const hostLine = 64

// NewCache builds a cache holding sizeBytes worth of memory lines of
// lineBytes each, for line addresses in [0, universe). A size of zero
// disables the cache (every access misses). Lines outside the universe are
// uncacheable: they always miss and Insert ignores them.
func NewCache(sizeBytes, lineBytes int, universe int64) *Cache {
	if lineBytes <= 0 {
		panic("hw: cache line size must be positive")
	}
	n := sizeBytes / lineBytes
	universe = max(universe, 0)
	return &Cache{
		lines:    n,
		ring:     make([]int64, 0, roundUp(int64(n), hostLine/8)),
		resident: make([]uint8, universe, roundUp(universe, hostLine)),
	}
}

func roundUp(n, m int64) int64 { return (n + m - 1) / m * m }

// Lines returns the capacity in memory lines.
func (c *Cache) Lines() int { return c.lines }

// Universe returns the extent of the residence table — with Lines, the
// geometry key pooled reuse matches on.
func (c *Cache) Universe() int64 { return int64(len(c.resident)) }

// Lookup reports whether the line is resident, counting a hit or a miss.
func (c *Cache) Lookup(lineAddr int64) bool {
	if c.Contains(lineAddr) {
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports residence without touching the statistics.
func (c *Cache) Contains(lineAddr int64) bool {
	return uint64(lineAddr) < uint64(len(c.resident)) && c.resident[lineAddr] != 0
}

// Insert makes the line resident (write-through: the caller has also issued
// the memory write). The oldest line is evicted when at capacity.
func (c *Cache) Insert(lineAddr int64) {
	// Outside the declared universe the table cannot track the line; treat
	// it as uncacheable rather than corrupt the ring.
	if c.lines == 0 || uint64(lineAddr) >= uint64(len(c.resident)) || c.resident[lineAddr] != 0 {
		return
	}
	if len(c.ring) < c.lines {
		c.ring = append(c.ring, lineAddr)
	} else {
		c.resident[c.ring[c.head]] = 0
		c.ring[c.head] = lineAddr
		c.head++
		if c.head == c.lines {
			c.head = 0
		}
	}
	c.resident[lineAddr] = 1
}

// Hits returns the number of lookup hits so far.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of lookup misses so far.
func (c *Cache) Misses() int64 { return c.misses }

// Reset clears contents and statistics, keeping the backing storage — a
// reset cache is indistinguishable from a new one with the same geometry.
func (c *Cache) Reset() {
	for _, line := range c.ring {
		c.resident[line] = 0
	}
	c.ring = c.ring[:0]
	c.head = 0
	c.hits, c.misses = 0, 0
}
