// Package xlate models the MDP's hardware name-translation table.
//
// The MDP supports a global namespace with name-translation instructions:
// virtual-physical pairs are inserted with ENTER and extracted with XLATE.
// A successful XLATE takes three cycles; a miss faults to system software.
// The hardware table is a bounded set-associative cache, so entries can be
// evicted and must be re-insertable by the fault handler — this is what
// makes the low xlate miss ratios of Table 5 meaningful.
//
// A table's entries are allocated on its first ENTER (or on restore of a
// checkpoint that holds a non-empty table): most nodes of the paper's
// workloads never ENTER a name, and until one does the table reads,
// digests and serializes exactly as an allocated empty one.
package xlate

import "jmachine/internal/word"

// Geometry of the translation table. The MDP's table held on the order of
// a few hundred entries; two-way associativity reproduces the
// eviction-on-conflict behaviour the CST runtime must tolerate.
const (
	DefaultSets = 128
	DefaultWays = 2
)

// Table is one node's name-translation cache.
type Table struct {
	sets int
	ways int
	// keys/vals/valid are sets×ways, row-major. lru holds the way to
	// evict next for each set (strict LRU for 2 ways). All four are nil
	// until the first Enter.
	keys  []word.Word
	vals  []word.Word
	valid []bool
	lru   []uint8

	hits      uint64
	misses    uint64
	inserts   uint64
	evictions uint64
}

// New returns a table with the given geometry; zero values select the
// defaults.
func New(sets, ways int) *Table {
	if sets <= 0 {
		sets = DefaultSets
	}
	if ways <= 0 {
		ways = DefaultWays
	}
	return &Table{sets: sets, ways: ways}
}

// alloc allocates an empty table's entries.
func (t *Table) alloc() {
	n := t.sets * t.ways
	t.keys = make([]word.Word, n)
	t.vals = make([]word.Word, n)
	t.valid = make([]bool, n)
	t.lru = make([]uint8, t.sets)
}

// Allocated reports whether the table's entries have been allocated.
func (t *Table) Allocated() bool { return t.keys != nil }

// entry returns way i of the row-major entries, and lruOf set s's LRU
// state. Both read an unallocated table as the zeros an allocated empty
// one holds, so the digest and the checkpoint see no difference.
func (t *Table) entry(i int) (key, val word.Word, valid bool) {
	if t.keys == nil {
		return 0, 0, false
	}
	return t.keys[i], t.vals[i], t.valid[i]
}

func (t *Table) lruOf(s int) uint8 {
	if t.lru == nil {
		return 0
	}
	return t.lru[s]
}

func (t *Table) set(key word.Word) int {
	// Keys are full tagged words: two names differing only in tag are
	// distinct, exactly as on the MDP.
	h := uint64(key)
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(t.sets))
}

// Enter inserts or replaces the pair (key → val), evicting the
// least-recently-used way on conflict.
func (t *Table) Enter(key, val word.Word) {
	if t.keys == nil {
		t.alloc()
	}
	t.inserts++
	s := t.set(key)
	base := s * t.ways
	// Replace an existing entry for the key, else fill an invalid way.
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.keys[base+w] == key {
			t.vals[base+w] = val
			t.touch(s, w)
			return
		}
	}
	for w := 0; w < t.ways; w++ {
		if !t.valid[base+w] {
			t.keys[base+w] = key
			t.vals[base+w] = val
			t.valid[base+w] = true
			t.touch(s, w)
			return
		}
	}
	w := int(t.lru[s]) % t.ways
	t.evictions++
	t.keys[base+w] = key
	t.vals[base+w] = val
	t.touch(s, w)
}

// Lookup translates key. ok is false on a miss, which the processor turns
// into a fault serviced by system software.
func (t *Table) Lookup(key word.Word) (val word.Word, ok bool) {
	if t.keys == nil {
		t.misses++
		return 0, false
	}
	s := t.set(key)
	base := s * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.keys[base+w] == key {
			t.hits++
			t.touch(s, w)
			return t.vals[base+w], true
		}
	}
	t.misses++
	return 0, false
}

// Probe is Lookup without statistics or LRU side effects (the PROBE
// instruction and fault handlers use it).
func (t *Table) Probe(key word.Word) (val word.Word, ok bool) {
	if t.keys == nil {
		return 0, false
	}
	s := t.set(key)
	base := s * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.keys[base+w] == key {
			return t.vals[base+w], true
		}
	}
	return 0, false
}

// Invalidate removes key from the table if present.
func (t *Table) Invalidate(key word.Word) {
	if t.keys == nil {
		return
	}
	s := t.set(key)
	base := s * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.keys[base+w] == key {
			t.valid[base+w] = false
			return
		}
	}
}

// touch records way w of set s as most recently used.
func (t *Table) touch(s, w int) {
	if t.ways == 2 {
		t.lru[s] = uint8(1 - w)
		return
	}
	t.lru[s] = uint8((w + 1) % t.ways)
}

// Stats reports accumulated counters: hits, misses, inserts, evictions.
type Stats struct {
	Hits, Misses, Inserts, Evictions uint64
}

// Stats returns the table's counters.
func (t *Table) Stats() Stats {
	return Stats{Hits: t.hits, Misses: t.misses, Inserts: t.inserts, Evictions: t.evictions}
}

// MissRatio returns misses/(hits+misses), or 0 with no traffic.
func (s Stats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}
