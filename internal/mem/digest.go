package mem

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// StateDigest folds the node's memory into a running 64-bit digest for
// the engine equivalence suite. The fold is sparse and position-keyed —
// geometry, then (address, word) for every non-zero word in ascending
// address order — so it is independent of which blocks happen to be
// materialized: a block of explicit zeros digests identically to an
// unallocated one. The mix is not affine, so a dense every-word fold
// could not skip zero runs; the sparse fold costs O(touched words).
func (m *Memory) StateDigest(h uint64) uint64 {
	h = mix(h, uint64(m.size)|uint64(m.imemWords)<<32)
	for pi, lf := range m.pages {
		if lf == nil {
			continue
		}
		for bi, b := range lf {
			if b == nil {
				continue
			}
			base := uint64(pi<<pageShift | bi<<blockShift)
			for i, w := range b {
				if w != 0 {
					h = mix(h, base+uint64(i))
					h = mix(h, uint64(w))
				}
			}
		}
	}
	return h
}
