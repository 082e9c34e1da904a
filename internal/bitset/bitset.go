// Package bitset is the fixed-size set of small integers behind the
// simulator's active sets (docs/PERF.md, "Active sets"): one bit per
// router or per node, iterated in ascending order.
//
// A word covers 64 consecutive ids and so can straddle two of the
// engine's node slabs, whose goroutines set and clear their own bits
// concurrently during the node phase; words are
// therefore atomic, updated by compare-and-swap (go.mod is at go 1.22,
// before atomic Or/And). Two goroutines never update the same bit at
// once — that is the callers' contract, not something the set enforces.
//
// A summary level lets Next cross empty words without reading them:
// summary bit j means "word j may be non-zero". Add sets it; Remove never
// clears it; Next clears it when it finds word j zero and the word lies
// wholly inside the range being scanned. Under the slab contract only
// the slab's own goroutine adds to such a word during a parallel phase,
// and that goroutine is the one scanning, so no Add can slip between the
// zero read and the clear. A word straddling two slabs keeps its summary
// bit until a scan covering the whole word (a sequential one, between
// phases) finds it empty.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Set holds the integers in [0, 64·words). Data word j is s[j]; the
// summary word covering data words 64k..64k+63 is stored after them in
// reverse order, at s[len(s)-1-k], so locating it needs no division.
type Set []atomic.Uint64

// New returns an empty set with room for [0, n).
func New(n int) Set {
	words := (n + 63) / 64
	return make(Set, words+(words+63)/64)
}

// words returns the number of data words.
func (s Set) words() int { return len(s) - (len(s)+64)/65 }

// summary returns the summary word holding data word j's bit.
func (s Set) summary(j int) *atomic.Uint64 { return &s[len(s)-1-j>>6] }

// Add inserts i. Re-adding a member — the common case in a busy set —
// is a load inlined into the caller: the Add that set the bit also set
// its summary bit, and Next clears that only once the word is zero.
func (s Set) Add(i int) {
	if s[i>>6].Load()>>(i&63)&1 == 0 {
		s.add(i)
	}
}

// add sets i's bit and then its summary bit. The summary bit is checked
// on every add, not only when the word leaves zero: in a word shared by
// two slabs the goroutine that took it from zero may not have published
// the summary bit yet, and the other one must not reach its own Next
// before it is set.
func (s Set) add(i int) {
	w, bit := &s[i>>6], uint64(1)<<(i&63)
	for old := w.Load(); old&bit == 0 && !w.CompareAndSwap(old, old|bit); old = w.Load() {
	}
	sw, sbit := s.summary(i>>6), uint64(1)<<(i>>6&63)
	for old := sw.Load(); old&sbit == 0 && !sw.CompareAndSwap(old, old|sbit); old = sw.Load() {
	}
}

// Remove deletes i. The summary bit stays: Next clears it lazily.
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
//
// Next reads only the words whose summary bit is set, and clears the
// bit of each it finds zero and wholly inside [lo, hi). It is too large
// to inline; a hot loop that must not pay a call per member walks a word
// at a time, calling Next only to reach the next non-empty word:
//
//	for i := s.Next(lo, hi); i < hi; i = s.Next(i, hi) {
//		for end := min(i|63+1, hi); i < end; i = s.NextInWord(i+1, end) {
//			// visit i; leave the outer loop with a labelled break
//		}
//	}
func (s Set) Next(lo, hi int) int {
	from := lo
	for lo < hi {
		j := lo >> 6
		sum := s.summary(j).Load() >> (j & 63)
		if sum == 0 {
			lo = (j>>6 + 1) << 12 // the first id of the next summary word
			continue
		}
		j += bits.TrailingZeros64(sum)
		lo = max(lo, j<<6)
		if lo >= hi {
			break
		}
		w := s[j].Load()
		if v := w >> (lo & 63); v != 0 {
			return min(lo+bits.TrailingZeros64(v), hi)
		}
		if w == 0 && j<<6 >= from && j<<6+64 <= hi {
			sw, sbit := s.summary(j), uint64(1)<<(j&63)
			for old := sw.Load(); old&sbit != 0 && !sw.CompareAndSwap(old, old&^sbit); old = sw.Load() {
			}
		}
		lo = j<<6 + 64
	}
	return hi
}

// NextInWord is Next confined to one word: it returns the smallest
// member in [lo, end), or end when there is none, where end-1 and lo
// lie in the same word (or lo == end). It re-reads the word and makes
// no call, so it inlines into the word-at-a-time loop shown at Next.
func (s Set) NextInWord(lo, end int) int {
	if w := s[(end-1)>>6].Load() >> (lo & 63); w != 0 {
		return min(lo+bits.TrailingZeros64(w), end)
	}
	return end
}

// Check verifies the summary invariant — every non-zero word has its
// summary bit — and names the first word that breaks it. Call it where
// no Add is in flight (between cycles); O(words).
func (s Set) Check() error {
	for j := range s.words() {
		if w := s[j].Load(); w != 0 && s.summary(j).Load()>>(j&63)&1 == 0 {
			return fmt.Errorf("bitset: word %d holds %#x but its summary bit is clear", j, w)
		}
	}
	return nil
}
