package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"streamhist/internal/bins"
)

// regionLedger counts the bin regions handed to lanes fresh: a vector the
// ledger has not seen before, or one whose capacity grew since it last did.
// It holds every vector it has seen, so a region it counted is never freed
// and its address never reused for a later one.
type regionLedger struct {
	mu    sync.Mutex
	caps  map[*bins.Vector]int
	fresh int
}

func newRegionLedger() *regionLedger { return &regionLedger{caps: map[*bins.Vector]int{}} }

// newBinner is NewBinner, noting whether the binner's region is fresh.
func (l *regionLedger) newBinner(cfg BinnerConfig, pre *Preprocessor) *Binner {
	b := NewBinner(cfg, pre)
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, seen := l.caps[b.vec]; !seen || b.vec.Capacity() > c {
		l.fresh++
	}
	l.caps[b.vec] = b.vec.Capacity()
	return b
}

// allocated returns how many fresh regions the ledger has counted.
func (l *regionLedger) allocated() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fresh
}

// parkedVectors returns the bin regions on the free list.
func parkedVectors() []*bins.Vector {
	scratchList.Lock()
	defer scratchList.Unlock()
	var out []*bins.Vector
	for _, sc := range scratchList.parked {
		out = append(out, sc.vec)
	}
	return out
}

// emptyFreeList drops everything parked on the free list.
func emptyFreeList() {
	scratchList.Lock()
	defer scratchList.Unlock()
	scratchList.parked = nil
}

// waitGC runs one GC cycle and, while anything is parked, waits until the
// free list's sentinel finalizer has seen it.
func waitGC(t *testing.T) {
	t.Helper()
	scratchList.Lock()
	before, armed := scratchList.gcs, scratchList.armed
	scratchList.Unlock()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); armed; {
		scratchList.Lock()
		seen := scratchList.gcs
		scratchList.Unlock()
		if seen > before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the free list's GC sentinel never ran")
		}
		time.Sleep(time.Millisecond)
	}
}
