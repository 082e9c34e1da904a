// Package bitset is the fixed-size set of small integers behind the
// simulator's active sets (docs/PERF.md, "Active sets"): one bit per
// router or per node, iterated in ascending order.
//
// A word covers 64 consecutive ids and so can straddle two shards' slabs,
// whose goroutines set and clear their own bits concurrently; words are
// therefore atomic, updated by compare-and-swap (go.mod is at go 1.22,
// before atomic Or/And). Two goroutines never update the same bit at
// once — that is the callers' contract, not something the set enforces.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

// Set holds the integers in [0, 64·len).
type Set []atomic.Uint64

// New returns an empty set with room for [0, n).
func New(n int) Set { return make(Set, (n+63)/64) }

// Add inserts i.
func (s Set) Add(i int) {
	w, bit := &s[i>>6], uint64(1)<<(i&63)
	for old := w.Load(); old&bit == 0 && !w.CompareAndSwap(old, old|bit); old = w.Load() {
	}
}

// Remove deletes i.
func (s Set) Remove(i int) {
	w, bit := &s[i>>6], uint64(1)<<(i&63)
	for old := w.Load(); old&bit != 0 && !w.CompareAndSwap(old, old&^bit); old = w.Load() {
	}
}

// Put inserts i when on, deletes it otherwise.
func (s Set) Put(i int, on bool) {
	if on {
		s.Add(i)
	} else {
		s.Remove(i)
	}
}

// Has reports whether i is a member.
func (s Set) Has(i int) bool { return s[i>>6].Load()>>(i&63)&1 != 0 }

// Next returns the smallest member in [lo, hi), or hi when there is
// none. It reads the words afresh on every call, so a loop
//
//	for i := s.Next(lo, hi); i < hi; i = s.Next(i+1, hi)
//
// visits in ascending order every member present when the cursor reaches
// it, including those added ahead of the cursor during the loop — what a
// sweep over [lo, hi) testing each id would visit.
func (s Set) Next(lo, hi int) int {
	for lo < hi {
		if w := s[lo>>6].Load() >> (lo & 63); w != 0 {
			return min(lo+bits.TrailingZeros64(w), hi)
		}
		lo = lo&^63 + 64
	}
	return hi
}

// Count returns the number of members in [lo, hi).
func (s Set) Count(lo, hi int) int {
	n := 0
	for lo < hi {
		w := s[lo>>6].Load() >> (lo & 63)
		if rest := hi - lo; rest < 64-lo&63 {
			w &= 1<<rest - 1
		}
		n += bits.OnesCount64(w)
		lo = lo&^63 + 64
	}
	return n
}
