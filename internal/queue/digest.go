package queue

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// StateDigest folds the queue's complete state — buffered words in
// logical (head-first) order, arrival bookkeeping, squeeze limit, and
// statistics — into a running 64-bit digest, for the engine
// equivalence suite.
func (q *Queue) StateDigest(h uint64) uint64 {
	h = mix(h, uint64(q.used)|uint64(q.msgs)<<32)
	h = mix(h, uint64(q.arriving)|uint64(q.expecting)<<32)
	h = mix(h, uint64(q.limit))
	for i := 0; i < q.used; i++ {
		h = mix(h, uint64(q.buf[(q.head+i)&(len(q.buf)-1)]))
	}
	h = mix(h, uint64(q.maxUsed))
	h = mix(h, q.delivered)
	h = mix(h, q.rejected)
	return h
}
