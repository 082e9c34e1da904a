package bitset

import (
	"math/rand"
	"sync"
	"testing"
)

// TestAgainstBoolSlice drives a set and a []bool with the same seeded
// operations, over sizes that leave the last word partial, full and
// absent, and compares membership, Next and Count over random ranges.
func TestAgainstBoolSlice(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 1000, 64*64 + 1} {
		r := rand.New(rand.NewSource(int64(n)))
		s, ref := New(n), make([]bool, n)
		for op := 0; op < 2000; op++ {
			i := r.Intn(n)
			if r.Intn(3) == 0 {
				s.Remove(i)
				ref[i] = false
			} else if r.Intn(8) == 0 { // keep the set sparse enough for empty words
				s.Add(i)
				ref[i] = true
			} else if r.Intn(8) == 0 {
				ref[i] = r.Intn(2) == 0
				s.Put(i, ref[i])
			}
			lo := r.Intn(n + 1)
			hi := lo + r.Intn(n+1-lo)
			next, count := hi, 0
			for j := hi - 1; j >= lo; j-- {
				if ref[j] {
					next = j
					count++
				}
			}
			if got := s.Next(lo, hi); got != next {
				t.Fatalf("n=%d: Next(%d, %d) = %d, want %d", n, lo, hi, got, next)
			}
			if got := s.Count(lo, hi); got != count {
				t.Fatalf("n=%d: Count(%d, %d) = %d, want %d", n, lo, hi, got, count)
			}
			if s.Has(i) != ref[i] {
				t.Fatalf("n=%d: Has(%d) = %v", n, i, s.Has(i))
			}
			if err := s.Check(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

// modelNext is Next on the []bool model.
func modelNext(ref []bool, lo, hi int) int {
	for ; lo < hi && !ref[lo]; lo++ {
	}
	return lo
}

// TestIterationAgainstModel runs both loop shapes the package documents
// — Next per member, and a word at a time with NextInWord — over random
// ranges while adding and removing members around the cursor, and
// requires every visit to be the model's next member at or after the
// cursor: members added ahead are visited, those behind are not.
func TestIterationAgainstModel(t *testing.T) {
	for _, n := range []int{1, 64, 65, 1000, 2*64*64 + 5} {
		r := rand.New(rand.NewSource(int64(n) + 7))
		s, ref := New(n), make([]bool, n)
		put := func(i int, on bool) { s.Put(i, on); ref[i] = on }
		for i := 0; i < n; i++ {
			if r.Intn(40) == 0 {
				put(i, true)
			}
		}
		// mutate flips a few members anywhere in [0, n), mostly sparse
		// additions so that whole words and summary words stay empty.
		mutate := func() {
			for k := r.Intn(3); k > 0; k-- {
				put(r.Intn(n), r.Intn(3) != 0)
			}
		}
		for round := 0; round < 200; round++ {
			lo := r.Intn(n + 1)
			hi := lo + r.Intn(n+1-lo)
			visit := func(i, cursor int) {
				t.Helper()
				if want := modelNext(ref, cursor, hi); i != want {
					t.Fatalf("n=%d round %d: visited %d from cursor %d in [%d, %d), want %d", n, round, i, cursor, lo, hi, want)
				}
				mutate()
			}
			if round%2 == 0 {
				cursor := lo
				for i := s.Next(lo, hi); i < hi; i = s.Next(i+1, hi) {
					visit(i, cursor)
					cursor = i + 1
				}
				if want := modelNext(ref, cursor, hi); want != hi {
					t.Fatalf("n=%d round %d: loop ended with member %d left in [%d, %d)", n, round, want, cursor, hi)
				}
			} else {
				cursor := lo
				for i := s.Next(lo, hi); i < hi; i = s.Next(i, hi) {
					if want := modelNext(ref, cursor, hi); i != want {
						t.Fatalf("n=%d round %d: Next(%d, %d) = %d, want %d", n, round, cursor, hi, i, want)
					}
					for end := min(i|63+1, hi); i < end; i = s.NextInWord(i+1, end) {
						visit(i, cursor)
						cursor = i + 1
					}
					cursor = i
				}
				if want := modelNext(ref, cursor, hi); want != hi {
					t.Fatalf("n=%d round %d: loop ended with member %d left in [%d, %d)", n, round, want, cursor, hi)
				}
			}
			if err := s.Check(); err != nil {
				t.Fatalf("n=%d round %d: %v", n, round, err)
			}
			for i := range ref {
				if s.Has(i) != ref[i] {
					t.Fatalf("n=%d round %d: Has(%d) = %v", n, round, i, s.Has(i))
				}
			}
		}
	}
}

// summarized reports word j's summary bit.
func summarized(s Set, j int) bool { return s.summary(j).Load()>>(j&63)&1 != 0 }

// TestSummaryClearingRule pins when Next may clear a summary bit: only
// for a zero word lying wholly inside the scanned range, the one case in
// which the scanning goroutine owns every bit of it.
func TestSummaryClearingRule(t *testing.T) {
	s := New(256)
	s.Add(70)
	s.Remove(70)
	if !summarized(s, 1) {
		t.Fatal("Remove cleared a summary bit")
	}
	for _, r := range [][2]int{{70, 256}, {0, 100}, {65, 127}} {
		if got := s.Next(r[0], r[1]); got != r[1] {
			t.Fatalf("Next(%d, %d) = %d on an empty set", r[0], r[1], got)
		}
		if !summarized(s, 1) {
			t.Fatalf("Next(%d, %d) cleared the summary bit of word 1, which it covers only in part", r[0], r[1])
		}
	}
	s.Next(64, 128)
	if summarized(s, 1) {
		t.Error("Next(64, 128) left the summary bit of the zero word it covers")
	}
}

// TestAddPublishesSummaryInSharedWord: a neighbour slab's goroutine has
// taken word 0 from zero but not yet set its summary bit. An Add by this
// slab's goroutine into the same word must still leave the bit set, or
// its own next scan would skip its member.
func TestAddPublishesSummaryInSharedWord(t *testing.T) {
	s := New(128)
	s[0].Store(1) // the neighbour's bit, summary not yet published
	s.Add(5)
	if got := s.Next(1, 128); got != 5 {
		t.Fatalf("Next(1, 128) = %d after Add(5), want 5", got)
	}
}

// TestCheckFindsMissingSummary breaks the summary invariant by hand and
// requires Check to name the word.
func TestCheckFindsMissingSummary(t *testing.T) {
	s := New(300)
	s.Add(130)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.summary(2).Store(0)
	if err := s.Check(); err == nil {
		t.Fatal("Check passed a non-zero word with a clear summary bit")
	}
}

// TestNextSeesAdditionsAheadOfCursor pins what the step loops rely on:
// a member added ahead of the cursor during a Next loop is visited in
// that loop, one added behind it is not.
func TestNextSeesAdditionsAheadOfCursor(t *testing.T) {
	s := New(200)
	s.Add(10)
	var got []int
	for i := s.Next(0, 200); i < 200; i = s.Next(i+1, 200) {
		got = append(got, i)
		if i == 10 {
			s.Add(5)
			s.Add(11)  // same word
			s.Add(150) // a later word
		}
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 11 || got[2] != 150 {
		t.Fatalf("visited %v, want [10 11 150]", got)
	}
}

// TestConcurrentNeighbours has several goroutines add and remove
// interleaved bits of the same words, as shards whose slabs meet inside
// a word do. Run under -race.
func TestConcurrentNeighbours(t *testing.T) {
	const n, workers = 256, 4
	s := New(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i := w; i < n; i += workers {
					s.Add(i)
				}
				for i := w; i < n; i += 2 * workers {
					s.Remove(i)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if want := i%(2*workers) >= workers; s.Has(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, s.Has(i), want)
		}
	}
}

// TestConcurrentSlabs is the engine's access pattern: goroutines own
// slabs whose edges fall inside words, and each adds, removes and scans
// only its own slab, concurrently with the others. Every scan must find
// exactly the slab's members — a word shared with a neighbour never
// hides one, whoever took the word from zero. Run under -race.
func TestConcurrentSlabs(t *testing.T) {
	const n = 64*64 + 300
	edges := []int{0, 37, 64*3 + 5, 64*64 - 10, 64 * 64, n}
	s := New(n)
	var wg sync.WaitGroup
	for w := 0; w+1 < len(edges); w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(lo)))
			ref := make([]bool, hi-lo)
			for round := 0; round < 300; round++ {
				for k := 0; k < 4; k++ {
					i := lo + r.Intn(hi-lo)
					on := r.Intn(2) == 0
					s.Put(i, on)
					ref[i-lo] = on
				}
				// Keep the slab's edge words busy: that is where a
				// neighbour may take the shared word from zero.
				s.Put(lo, round%2 == 0)
				ref[0] = round%2 == 0
				s.Put(hi-1, round%3 == 0)
				ref[hi-1-lo] = round%3 == 0
				var got []int
				for i := s.Next(lo, hi); i < hi; i = s.Next(i, hi) {
					for end := min(i|63+1, hi); i < end; i = s.NextInWord(i+1, end) {
						got = append(got, i)
					}
				}
				k := 0
				for i, on := range ref {
					if !on {
						continue
					}
					if k >= len(got) || got[k] != lo+i {
						t.Errorf("slab [%d, %d) round %d: scan found %v, missing %d", lo, hi, round, got, lo+i)
						return
					}
					k++
				}
				if k != len(got) {
					t.Errorf("slab [%d, %d) round %d: scan found %v, extra members", lo, hi, round, got)
					return
				}
			}
		}(edges[w], edges[w+1])
	}
	wg.Wait()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}
