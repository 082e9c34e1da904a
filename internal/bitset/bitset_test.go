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
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
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
		}
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
