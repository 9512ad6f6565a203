package obs

// Ring is a fixed-capacity buffer that overwrites its oldest element once
// full — the one shape every bounded store in the observability plane has
// (recent scans, tail-sampled scans, client span reports, the timeline's
// sealed windows and anomaly history). It is not synchronised:
// each owner guards its ring with the lock it already holds. A zero-capacity
// ring drops every Push.
type Ring[T any] struct {
	buf  []T
	head int // next write slot
	n    int // elements held
}

// NewRing returns an empty ring holding at most capacity elements.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, max(capacity, 0))}
}

// Push appends v, evicting the oldest element when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len returns how many elements the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th oldest element, 0 <= i < Len, in place: the pointer is
// valid until the slot is overwritten by a later Push.
func (r *Ring[T]) At(i int) *T {
	return &r.buf[(r.head-r.n+i+len(r.buf))%len(r.buf)]
}

// Newest copies out up to n elements, newest first.
func (r *Ring[T]) Newest(n int) []T {
	n = max(min(n, r.n), 0)
	out := make([]T, n)
	for i := range out {
		out[i] = *r.At(r.n - 1 - i)
	}
	return out
}

// Oldest copies out the n most recent elements in arrival order (oldest of
// them first); n >= Len returns everything held.
func (r *Ring[T]) Oldest(n int) []T {
	n = max(min(n, r.n), 0)
	out := make([]T, n)
	for i := range out {
		out[i] = *r.At(r.n - n + i)
	}
	return out
}
