package stats

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// StateDigest folds the node's counters — including the per-handler
// table, in its ascending ip order — into a running 64-bit digest, for
// the engine equivalence suite.
func (n *Node) StateDigest(h uint64) uint64 {
	for _, c := range n.Cycles {
		h = mix(h, uint64(c))
	}
	h = mix(h, n.Instrs)
	h = mix(h, n.Threads)
	h = mix(h, n.SendFaultCycles)
	h = mix(h, n.SendFaults)
	for v := 0; v < 2; v++ {
		h = mix(h, n.MsgsSent[v])
		h = mix(h, n.WordsSent[v])
	}
	h = mix(h, n.XlateFaults)
	h = mix(h, n.CfutFaults)
	h = mix(h, n.OverflowFaults)
	for _, c := range n.classes {
		h = mix(h, uint64(uint32(c.ip)))
		h = mix(h, c.Invocations)
		h = mix(h, c.Instrs)
		h = mix(h, c.MsgWords)
	}
	return h
}
