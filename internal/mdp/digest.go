package mdp

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// StateDigest folds the node's complete architectural state — register
// contexts, send buffers, software queue, fault/halt flags, memory,
// translation table, delivery queues and statistics — into a
// running 64-bit digest, for the engine equivalence suite.
func (n *Node) StateDigest(h uint64) uint64 {
	for l := range n.ctx {
		c := &n.ctx[l]
		for _, r := range c.Regs {
			h = mix(h, uint64(r))
		}
		var run uint64
		if c.Running {
			run = 1
		}
		h = mix(h, uint64(uint32(c.IP))|uint64(uint32(c.HandlerIP))<<32)
		h = mix(h, run)
	}
	h = mix(h, uint64(n.cur)|uint64(uint32(n.stall))<<32)
	h = mix(h, uint64(n.stallCat)|uint64(n.region)<<8)
	if len(n.fuseSegs) > 0 {
		h = n.fuseDigest(h)
	}
	for l := range n.building {
		for v := 0; v < 2; v++ {
			h = mix(h, uint64(len(n.building[l][v]))|uint64(n.pendingLen[l][v])<<32)
			for _, w := range n.building[l][v] {
				h = mix(h, uint64(w))
			}
		}
	}
	h = mix(h, uint64(len(n.softQ))|uint64(n.softUsed)<<32)
	for _, sm := range n.softQ {
		h = mix(h, uint64(uint32(sm.addr))|uint64(sm.words)<<32)
	}
	h = mix(h, uint64(uint32(n.softAlloc)))
	var flags uint64
	if n.p0Soft {
		flags |= 1
	}
	if n.halted {
		flags |= 2
	}
	if n.frozen {
		flags |= 4
	}
	if n.killed {
		flags |= 8
	}
	if n.fatal != nil {
		flags |= 16
		for _, b := range n.fatal.Error() {
			h = mix(h, uint64(b))
		}
	}
	h = mix(h, flags)
	h = mix(h, uint64(n.cycle))
	h = mix(h, uint64(n.nnr))
	h = n.Mem.StateDigest(h)
	h = n.Xl.StateDigest(h)
	h = n.Queues[0].StateDigest(h)
	h = n.Queues[1].StateDigest(h)
	h = n.Stats.StateDigest(h)
	// The word the absent event ring mixed; kept so the pinned digests
	// still match.
	h = mix(h, 0)
	return h
}
