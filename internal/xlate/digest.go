package xlate

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// StateDigest folds the translation table's entries, LRU state, and
// counters into a running 64-bit digest, for the engine equivalence
// suite. An unallocated table folds the zeros of an allocated empty one.
func (t *Table) StateDigest(h uint64) uint64 {
	for i := range t.sets * t.ways {
		key, val, valid := t.entry(i)
		var v uint64
		if valid {
			v = 1
		}
		h = mix(h, v)
		h = mix(h, uint64(key))
		h = mix(h, uint64(val))
	}
	for s := range t.sets {
		h = mix(h, uint64(t.lruOf(s)))
	}
	h = mix(h, t.hits)
	h = mix(h, t.misses)
	h = mix(h, t.inserts)
	h = mix(h, t.evictions)
	return h
}
