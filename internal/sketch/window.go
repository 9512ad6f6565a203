package sketch

import (
	"fmt"
	"slices"
)

// Window is the bounded-state sliding-window aggregate: count, sum, min, and
// max over the last W values of the stream. "Last" is defined by the global
// stream position each Push carries, not by arrival order — the parallel
// path delivers pages to lanes out of order (and replays retired lanes'
// chunks late), so the block keeps the W entries with the largest positions
// and evicts by position. Positions are unique per row, which makes the kept
// set — and therefore the merged aggregate — identical to the serial path's,
// whatever the sharding or replay interleaving.
//
// The retained pairs live in one slice, ascending by position. A lane sees
// its pages in storage order, so nearly every batch starts past the newest
// retained position and is a plain append; the slice is cut back to its W
// newest entries once it reaches 2W, which makes a push O(1) amortised. A
// batch that arrives out of order (a retired lane's replay) and Merge are
// the same two-run sorted merge.
type Window struct {
	blockBase
	w int
	// buf is ascending by position; the window is its last min(len, w)
	// entries, anything before them is awaiting compaction.
	buf []winEntry
	// spare is the merge's output buffer, swapped with buf after each merge.
	spare []winEntry
}

// winEntry is one retained (position, value) pair.
type winEntry struct {
	pos int64
	val int64
}

// NewWindow returns a window over the last w values. w = 0 is legal and
// aggregates nothing (count stays 0); w larger than the stream keeps
// everything.
func NewWindow(w int) *Window {
	if w < 0 {
		w = 0
	}
	return &Window{w: w}
}

// Kind implements StatBlock.
func (w *Window) Kind() Kind { return KindWindow }

// Name implements StatBlock.
func (w *Window) Name() string { return "window" }

// W returns the configured window width.
func (w *Window) W() int { return w.w }

// live returns the retained window: the W newest entries, ascending by
// position.
func (w *Window) live() []winEntry {
	if len(w.buf) > w.w {
		return w.buf[len(w.buf)-w.w:]
	}
	return w.buf
}

// inOrder reports whether pos lies past every retained position, i.e.
// whether a run starting there can simply be appended.
func (w *Window) inOrder(pos int64) bool {
	return len(w.buf) == 0 || pos > w.buf[len(w.buf)-1].pos
}

// Push implements StatBlock.
func (w *Window) Push(pos, v int64) {
	w.PushBatch(pos, []int64{v})
}

// PushBatch implements StatBlock: value i carries position pos+i.
func (w *Window) PushBatch(pos int64, vals []int64) {
	w.items += int64(len(vals))
	if w.w == 0 || len(vals) == 0 {
		return
	}
	if !w.inOrder(pos) {
		mid := len(w.buf)
		w.appendRun(pos, vals)
		w.mergeTail(mid)
		return
	}
	if len(vals) >= w.w {
		// The batch alone covers the window: only its last W values survive.
		skip := len(vals) - w.w
		pos, vals = pos+int64(skip), vals[skip:]
		w.buf = w.buf[:0]
	} else if len(w.buf)+len(vals) > 2*w.w {
		w.compact()
	}
	w.appendRun(pos, vals)
}

// appendRun appends the consecutive-position run (pos+i, vals[i]) to buf.
func (w *Window) appendRun(pos int64, vals []int64) {
	base := len(w.buf)
	w.buf = slices.Grow(w.buf, len(vals))[:base+len(vals)]
	run := w.buf[base:]
	for i, v := range vals {
		run[i] = winEntry{pos: pos + int64(i), val: v}
	}
}

// compact drops everything before the window.
func (w *Window) compact() {
	w.buf = w.buf[:copy(w.buf, w.live())]
}

// mergeTail restores the invariant after a second ascending run was appended
// at buf[mid:]: the window and that run are merged from their newest ends,
// keeping the W largest positions.
func (w *Window) mergeTail(mid int) {
	a, b := w.buf[:mid], w.buf[mid:]
	if len(a) > w.w {
		a = a[len(a)-w.w:]
	}
	k := len(a) + len(b)
	if k > w.w {
		k = w.w
	}
	if cap(w.spare) < k {
		w.spare = make([]winEntry, k)
	}
	out := w.spare[:k]
	i, j := len(a)-1, len(b)-1
	for k--; k >= 0; k-- {
		if j < 0 || (i >= 0 && a[i].pos > b[j].pos) {
			out[k] = a[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	w.buf, w.spare = out, w.buf[:0]
}

// Aggregate is the windowed result.
type Aggregate struct {
	// Count is how many values the window holds (min(W, stream length)).
	Count int64
	Sum   int64
	// Min and Max are only meaningful when Count > 0.
	Min, Max int64
}

// Aggregate computes count/sum/min/max over the retained window.
func (w *Window) Aggregate() Aggregate {
	var a Aggregate
	for i, e := range w.live() {
		a.Count++
		a.Sum += e.val
		if i == 0 || e.val < a.Min {
			a.Min = e.val
		}
		if i == 0 || e.val > a.Max {
			a.Max = e.val
		}
	}
	return a
}

// Merge implements StatBlock: the union's W largest positions win, exactly
// reproducing the serial window over the combined stream.
func (w *Window) Merge(other StatBlock) error {
	o, ok := other.(*Window)
	if !ok {
		return fmt.Errorf("sketch: merging %s into window", other.Kind())
	}
	if o.w != w.w {
		return fmt.Errorf("sketch: merging window W=%d into W=%d", o.w, w.w)
	}
	if run := o.live(); len(run) > 0 {
		mid := len(w.buf)
		w.buf = append(w.buf, run...)
		w.mergeTail(mid)
	}
	w.absorb(&o.blockBase)
	return nil
}
