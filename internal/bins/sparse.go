package bins

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"unsafe"
)

// MaxSparseBins bounds the bins of a sparse vector, whose bins are uint32
// keys.
const MaxSparseBins = math.MaxUint32

// sparse is the host form of a region few of whose bins are written: logs of
// the writes, so that its memory follows the bins a scan touches rather than
// the range it reserves, and a write is an append rather than a lookup.
//
// The region is cut into partitions by the high bits of the bin, each
// 2^partBits bins wide, so that a partition's work stays in a core's cache.
// A partition's run ascends by bin, one entry a bin, each holding the bin's
// cell; its log holds the writes since, in write order, a bin as often as it
// was written. Appending a write to its partition's log is the first pass of
// a radix sort, done once on the way in. A write logs its count when the
// count is above zero and below wideMark. Any other count is added to the
// bin's value in the wide map, and the log takes a mark (wideMark) for it,
// so a bin holds a key there exactly when its cell or a logged entry is a
// mark.
//
// A partition combines alone (combinePart): when its log reaches
// max(2·run, logFloor) entries, so that a write costs amortised O(1) and the
// log stays within twice the bins held, and before anything reads its
// counts. The combine sorts the log over the bin's low bits — a radix sort,
// skipped when the log already ascends, as writes in value order do — merges
// it with the run, and sums each bin's entries, so a write is sorted at most
// once. Partitions are disjoint ranges of bins, so regions merge partition
// by partition (mergePart), and merges of different partitions may run side
// by side (mergeSparse).
//
// Logs, and the runs a combine makes, are lists of fixed chunks, and the
// chunks are the region's, not a partition's: a combine hands its log's and
// its old run's chunks back and takes its new run's from the same list, so a
// lane's writes and the runs they become share memory, and a region
// allocates a number of times that grows with the log of its bytes, not with
// its partitions. A merge writes its runs flat instead, partition after
// partition, into one of the region's two flat buffers, which the merge
// after it and every read of the merged region then stream through.
type sparse struct {
	parts   []part
	logs    []plog     // partition k's log is logs[k]: apart, so that writes touch few lines
	free    []*chunk   // chunks no partition holds
	chunks  int        // chunks made
	flat    [2][]entry // flat[cur] holds the flat runs
	cur     int
	hasFlat bool           // some run is flat, so a merge must write the other buffer
	srcs    []*Vector      // the regions the merge readyMerge readied takes
	merging sync.WaitGroup // the goroutines sharing a merge (see mergeSparse)
	tmp     []entry        // the sort's and the merge's buffers: one as long as a
	ordered []entry        // run and its log, one as long as a log
	size    int            // bytes of all of the above
	sorted  int            // entries radix-sorted since the region was made; tests read it
}

type entry struct{ bin, count uint32 }

// part is the combined half of one partition of a sparse region. Its run,
// ascending by bin and one entry a bin, is a list of chunks, each full but
// the last, or when run is nil flat[cur][at:at+nrun].
type part struct {
	run     *chunk
	stale   *chunk // chunks a merge left, handed back once every partition is merged
	at, dst int    // where the flat run starts, and where the next merge writes it
	nrun    int32  // entries in the run
	pos     int32  // entries of the run whose count is above zero
}

// plog is one partition's log: a list of chunks, nil when empty.
type plog struct {
	head, tail *chunk
	fill       int32 // entries in tail; chunkLen when the log is empty
	full       int32 // entries in the chunks before tail
}

// chunk is a piece of a partition's run or log.
type chunk struct {
	ents [chunkLen]entry
	next *chunk
}

const (
	// partBits is a partition's width in bits of the bin: 2^16 bins,
	// whose 32-bit cells would take 256 KiB, a core's private cache.
	partBits = 16
	// logFloor is the longest log a partition leaves alone however few
	// bins its run holds: reads combine it anyway, and every sort of a log
	// pays a 256-bucket tally per pass, which a short log does not repay.
	// A lane of widedomain writes ≈ 630 times to each of its partitions,
	// so it combines each once, at end of input; with a floor of 64 the
	// same lane ran a third slower (EXPERIMENTS.md "Partitioned bin
	// regions").
	logFloor = 1024
	// chunkLen is the entries of a chunk: 1 KiB, small enough that a
	// partition written once costs little, and long enough that the
	// streams a merge and a sort read through a list of chunks are mostly
	// prefetched (at 512 B a served widedomain scan ran 2–7 % slower).
	chunkLen = 128
	// firstSlab and slabChunks are the chunks made at once, the first time
	// and after: a region written a little costs 16 KiB, and one written
	// much allocates once per 128 KiB. Made chunks stay the region's, so
	// the slab bounds what a region holds past its peak.
	firstSlab, slabChunks = 16, 128
	partBytes             = int(unsafe.Sizeof(part{}) + unsafe.Sizeof(plog{}))
	chunkBytes            = int(unsafe.Sizeof(chunk{}))
)

// sortLog counts both of a partition's digits in one loop, and a log reaches
// logFloor at the end of a chunk.
var _ = [1]int{}[partBits-16+logFloor%chunkLen]

func (s *sparse) bytes() int { return s.size }

// reset empties s and aims it at n bins, keeping its storage.
func (s *sparse) reset(n int) {
	for k := range s.parts {
		p := &s.parts[k]
		s.drop(p.run)
		s.release(&s.logs[k])
	}
	np := (n + 1<<partBits - 1) >> partBits
	if np > cap(s.parts) {
		s.size += partBytes * (np - cap(s.parts))
		s.parts, s.logs = make([]part, np), make([]plog, np)
	}
	s.parts, s.logs = s.parts[:np], s.logs[:np]
	for k := range s.parts {
		s.parts[k], s.logs[k] = part{}, plog{fill: chunkLen}
	}
	s.hasFlat = false
}

// take returns a chunk linked to nothing from the free list, making more
// when it is empty. The free list is a stack of pointers, so taking a chunk
// reads nothing of it: a chunk handed back a while ago is out of cache.
func (s *sparse) take() *chunk {
	if len(s.free) == 0 {
		n := slabChunks
		if s.chunks == 0 {
			n = firstSlab
		}
		made := make([]chunk, n)
		if s.chunks += n; cap(s.free) < s.chunks {
			// Room for every chunk there is, so that handing chunks back
			// never grows the list.
			s.free = make([]*chunk, 0, 2*s.chunks)
		}
		for k := range made {
			s.free = append(s.free, &made[k])
		}
		s.size += (chunkBytes + 8) * n
	}
	c := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	c.next = nil
	return c
}

// drop hands the chunks of list back to the free list.
func (s *sparse) drop(list *chunk) {
	for ; list != nil; list = list.next {
		s.free = append(s.free, list)
	}
}

// logged returns the entries in l.
func (l *plog) logged() int {
	if l.tail == nil {
		return 0
	}
	return int(l.full + l.fill)
}

// release hands l's chunks back to s and empties it.
func (s *sparse) release(l *plog) {
	s.drop(l.head)
	*l = plog{fill: chunkLen}
}

// logChunk gives partition k's log a fresh chunk to write into, once its
// tail is full: it combines the partition first when the log has reached
// max(2·run, logFloor) entries.
func (v *Vector) logChunk(k int) {
	s, l := v.sp, &v.sp.logs[k]
	if l.tail != nil {
		if l.full+chunkLen >= max(2*s.parts[k].nrun, logFloor) {
			v.combinePart(k)
		} else {
			l.full += chunkLen
		}
	}
	c := s.take()
	if l.tail == nil {
		l.head = c
	} else {
		l.tail.next = c
	}
	l.tail, l.fill = c, 0
}

// upTo returns the first min(n, chunkLen) entries of c.
func (c *chunk) upTo(n int) []entry { return c.ents[:min(n, chunkLen)] }

// ents returns the entries c, a chunk of l, holds.
func (l *plog) ents(c *chunk) []entry {
	if c == l.tail {
		return c.ents[:l.fill]
	}
	return c.ents[:]
}

// runReader reads a run a chunk at a time, or a flat run at once.
type runReader struct {
	flat []entry
	c    *chunk
	left int
}

// reader returns a reader of p's run.
func (s *sparse) reader(p *part) runReader {
	if p.run == nil && p.nrun > 0 {
		return runReader{flat: s.flat[s.cur][p.at : p.at+int(p.nrun)]}
	}
	return runReader{c: p.run, left: int(p.nrun)}
}

// next returns the run's next piece of entries, nil at its end.
func (r *runReader) next() []entry {
	if r.flat != nil {
		ents := r.flat
		r.flat = nil
		return ents
	}
	if r.left <= 0 {
		return nil
	}
	ents := r.c.upTo(r.left)
	r.c, r.left = r.c.next, r.left-chunkLen
	return ents
}

// find returns the cell of bin in p's run, and whether the run holds it.
func (s *sparse) find(p *part, bin uint32) (uint32, bool) {
	r := s.reader(p)
	for ents := r.next(); ents != nil; ents = r.next() {
		if ents[len(ents)-1].bin >= bin {
			k := sort.Search(len(ents), func(k int) bool { return ents[k].bin >= bin })
			if ents[k].bin != bin {
				return 0, false
			}
			return ents[k].count, true
		}
	}
	return 0, false
}

// store makes ents p's run, in chunks taken from s; p's run must be empty.
func (s *sparse) store(p *part, ents []entry) {
	p.nrun = int32(len(ents))
	var last *chunk
	for len(ents) > 0 {
		c := s.take()
		ents = ents[copy(c.ents[:], ents):]
		if last == nil {
			p.run = c
		} else {
			last.next = c
		}
		last = c
	}
}

// scratch returns buf, or a new buffer in its place, with room for n entries.
func (s *sparse) scratch(buf []entry, n int) []entry {
	if cap(buf) >= n {
		return buf
	}
	s.size += 8 * (n - cap(buf))
	return make([]entry, 0, n)
}

// sortLog returns l sorted by bin, in s.ordered. It sorts over the low width
// bits of the bin, least significant byte first, and its first pass reads
// the chunks. One read of the chunks counts the digits of both passes and
// finds a log that already ascends, which is copied out as it is.
func (s *sparse) sortLog(l *plog, width int) []entry {
	var at [partBits / 8][256]uint32
	falls, last := uint64(0), uint64(0)
	for c := l.head; c != nil; c = c.next {
		for _, e := range l.ents(c) {
			at[0][byte(e.bin)]++
			at[1][byte(e.bin>>8)]++
			// The top bit is set when the bin is below the last one: an
			// or, not a branch, since on random bins that is a coin toss.
			falls |= uint64(e.bin) - last
			last = uint64(e.bin)
		}
	}
	out := s.ordered[:l.logged()]
	if falls>>63 == 0 {
		k := 0
		for c := l.head; c != nil; c = c.next {
			k += copy(out[k:], l.ents(c))
		}
		return out
	}
	s.sorted += len(out)
	// With a second pass the first writes tmp, which the second reads.
	dst := out
	if width > 8 {
		dst = s.tmp[:len(out)]
	}
	offsets(&at[0])
	for c := l.head; c != nil; c = c.next {
		for _, e := range l.ents(c) {
			d := byte(e.bin)
			dst[at[0][d]] = e
			at[0][d]++
		}
	}
	if width > 8 {
		offsets(&at[1])
		for _, e := range dst {
			d := byte(e.bin >> 8)
			out[at[1][d]] = e
			at[1][d]++
		}
	}
	return out
}

// offsets turns digit counts into the positions their entries start at.
func offsets(at *[256]uint32) {
	sum := uint32(0)
	for d, c := range at {
		at[d], sum = sum, sum+c
	}
}

// combinePart folds partition k's log into its run (see sparse). It sorts the log and
// merges it with the run in tmp: the run is copied out behind the log's
// length, and the merge runs forward from the front, where it never passes
// the run's unread entries. Then each bin's entries are summed into one in
// place, and the result becomes the run, in the chunks the log and the old
// run hand back. A bin's sum is its counts that are not marks, plus its wide
// value when any of them is a mark, and it goes back through widen, so the
// wide map again holds exactly the bins whose counts do not fit a cell.
func (v *Vector) combinePart(k int) {
	s, p, l := v.sp, &v.sp.parts[k], &v.sp.logs[k]
	n, nrun := l.logged(), int(p.nrun)
	s.tmp = s.scratch(s.tmp, nrun+n)
	s.ordered = s.scratch(s.ordered, n)
	log := s.sortLog(l, min(partBits, bits.Len(uint(v.n-1))))
	s.release(l)
	// A partition's first combine, the one a lane's usually makes, has no
	// run to merge with: the sorted log is summed where it lies.
	ents := log
	if nrun > 0 {
		ents = s.tmp[:nrun+n]
		run := ents[n:n]
		r := s.reader(p)
		for c := r.next(); c != nil; c = r.next() {
			run = append(run, c...)
		}
		s.drop(p.run)
		p.run = nil
		i, j := 0, 0
		for i < len(run) && j < len(log) {
			// Which run the next entry comes from is a coin toss on random
			// bins, so this body compiles to conditional moves, not a
			// branch.
			e, y, t := run[i], log[j], 0
			if y.bin < e.bin {
				e, t = y, 1
			}
			ents[i+j] = e
			i, j = i+1-t, j+t
		}
		copy(ents[i+j:], log[j:]) // what is left of the run already lies in place
	}
	out, pos := 0, 0
	for k := 0; k < len(ents); out++ {
		bin, sum, mark := ents[k].bin, int64(0), uint32(0)
		for ; k < len(ents) && ents[k].bin == bin; k++ {
			if c := ents[k].count; c == wideMark {
				mark = wideMark
			} else {
				sum += int64(c)
			}
		}
		if mark == wideMark {
			sum += v.wide[int(bin)]
		}
		cell := uint32(sum)
		if mark == wideMark || sum >= wideMark {
			cell = v.widen(int(bin), mark, sum)
		}
		ents[out] = entry{bin, cell}
		pos += positive(sum)
	}
	s.store(p, ents[:out])
	p.pos = int32(pos)
}

// mergeSparse merges the sparse regions srcs into v, partition by partition:
// readyMerge readies v, then ways goroutines, the caller's among them, each
// merge a range of the partitions, and once they are done the chunks the old
// runs held go back to v's list and v lets go of srcs.
func (v *Vector) mergeSparse(srcs []*Vector, ways int) {
	s := v.sp
	s.srcs = append(s.srcs[:0], srcs...)
	v.readyMerge()
	parts := len(s.parts)
	ways = max(1, min(ways, parts))
	s.merging.Add(ways - 1)
	for w := 1; w < ways; w++ {
		mergeTasks <- mergeTask{v, parts * w / ways, parts * (w + 1) / ways}
		go mergeHelper()
	}
	v.mergeParts(0, parts/ways)
	s.merging.Wait()
	for k := range s.parts {
		p := &s.parts[k]
		s.drop(p.stale)
		p.stale = nil
	}
	clear(s.srcs)
	s.srcs = s.srcs[:0]
}

// mergeTask is partitions [lo, hi) of v's merge, for a helper goroutine.
type mergeTask struct {
	v      *Vector
	lo, hi int
}

// mergeTasks hands merge tasks to helper goroutines, each of which takes one
// and exits. A go statement whose function takes arguments or captures
// variables allocates a closure every time; a helper that takes its task
// from a channel allocates nothing.
var mergeTasks = make(chan mergeTask, 64)

// mergeHelper merges the partitions of one task.
func mergeHelper() {
	t := <-mergeTasks
	t.v.mergeParts(t.lo, t.hi)
	t.v.sp.merging.Done()
}

// mergeParts merges partitions [lo, hi) (see mergePart).
func (v *Vector) mergeParts(lo, hi int) {
	for k := lo; k < hi; k++ {
		v.mergePart(k)
	}
}

// readyMerge readies v to take the runs of s.srcs, partition by partition: it
// combines every region, moves each wide bin of a source that v does not
// hold into v's wide map, so that its mark can be copied like any other
// entry (so only a single source may hold wide bins), and sizes a flat
// buffer to take every partition's merged run, each partition a slot as long
// as its runs together, in partition order — the current buffer, unless it
// holds flat runs the merge still reads, then the other, which becomes
// current. v's total takes the sources'.
func (v *Vector) readyMerge() {
	s := v.sp
	v.Combine()
	for _, src := range s.srcs {
		src.Combine()
		for i, c := range src.wide {
			if _, ok := s.find(&s.parts[i>>partBits], uint32(i)); !ok {
				v.wideMap()[i] = c
			}
		}
		v.total += src.total
	}
	need := 0
	for k := range s.parts {
		s.parts[k].dst = need
		need += int(s.parts[k].nrun)
		for _, src := range s.srcs {
			need += int(src.sp.parts[k].nrun)
		}
	}
	if s.hasFlat {
		s.cur = 1 - s.cur
	}
	s.flat[s.cur] = s.scratch(s.flat[s.cur], need)[:need]
	s.hasFlat = true
}

// mergePart merges partition k of every combined sparse region of s.srcs
// into partition k of combined sparse region v, in the slot readyMerge
// placed it at, one source at a time: each merge runs forward and ends
// where the last began, its start as many entries before as the source
// holds, so it never passes the entries it still reads, and the last leaves
// the partition's run flat at the front of what the slot's sources left
// free. The chunks the old run held are left stale, since the list they go
// back to is the whole region's. It reads nothing of the
// regions beside partition k and writes nothing beside it and its slot, so
// merges of different partitions may run side by side.
func (v *Vector) mergePart(k int) {
	s, p := v.sp, &v.sp.parts[k]
	// A flat run of p lies in the buffer that was current before readyMerge.
	xr := runReader{c: p.run, left: int(p.nrun)}
	if p.run == nil && p.nrun > 0 {
		xr = runReader{flat: s.flat[1-s.cur][p.at : p.at+int(p.nrun)]}
	}
	rest, pos := 0, int(p.pos)
	for _, src := range s.srcs {
		rest += int(src.sp.parts[k].nrun)
	}
	flat := s.flat[s.cur]
	at, n := p.dst, 0
	for _, src := range s.srcs {
		q := &src.sp.parts[k]
		rest -= int(q.nrun)
		at = p.dst + rest
		n = v.mergeRuns(flat[at:], &xr, src, src.sp.reader(q), &pos)
		pos += int(q.pos)
		xr = runReader{flat: flat[at : at+n]}
	}
	p.stale, p.run = p.run, nil
	p.at, p.nrun, p.pos = at, int32(n), int32(pos)
}

// mergeRuns merges the run xr reads, v's, and the run yr reads, other's,
// forward into out, and returns how many entries it wrote. A bin only one
// run holds is copied as it is; a bin both hold gets one entry with the two
// counts summed, each read through its own region's wide map, the sum going
// back through widen and the positive-count tally pos following.
func (v *Vector) mergeRuns(out []entry, xr *runReader, other *Vector, yr runReader, pos *int) int {
	k := 0
	x, y := xr.next(), yr.next()
	for len(x) > 0 && len(y) > 0 {
		// A step takes at most one entry from each run, so this many steps
		// need no look at a chunk's end.
		i, j, d := 0, 0, out[k:]
		m := min(len(x), len(y))
		for o := 0; o < m; o++ {
			e, f := x[i], y[j]
			if e.bin == f.bin {
				a, b := v.cellCount(int(e.bin), e.count), other.cellCount(int(f.bin), f.count)
				sum := a + b
				cell := uint32(sum)
				if e.count == wideMark || uint64(sum) >= wideMark {
					cell = v.widen(int(e.bin), e.count, sum)
				}
				d[o] = entry{e.bin, cell}
				*pos += positive(sum) - positive(a) - positive(b)
				i, j = i+1, j+1
				continue
			}
			// As in combinePart, the pick between the runs compiles to
			// conditional moves; a bin both hold is the rare case.
			t := 0
			if f.bin < e.bin {
				e, t = f, 1
			}
			d[o] = e
			i, j = i+1-t, j+t
		}
		k += m
		if x = x[i:]; len(x) == 0 {
			x = xr.next()
		}
		if y = y[j:]; len(y) == 0 {
			y = yr.next()
		}
	}
	for ; x != nil; x = xr.next() {
		k += copy(out[k:], x)
	}
	for ; y != nil; y = yr.next() {
		k += copy(out[k:], y)
	}
	return k
}
