package network

import "fmt"

// CheckInvariants recomputes the network's derived bookkeeping from a
// full scan and returns an error naming the first disagreement: every
// occupied-port mask against its buffers, every router's occ against
// their sum, the active set against exactly the routers holding a phit
// or a queued message, the O(1) Pending counters against the totals,
// and the active set's summary level (bitset.Set.Check). Call it
// between cycles (mid-cycle the active set is only a superset). For
// tests and equivalence harnesses; O(routers × ports).
func (n *Network) CheckInvariants() error {
	var phits, msgs int64
	for ri := range n.routers {
		r := &n.routers[ri]
		occ := int32(0)
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				cnt := r.in[v][q].n
				if (cnt > 0) != (r.busy[v]>>q&1 != 0) {
					return fmt.Errorf("network: router %d busy[%d]=%07b but input %d holds %d phits", ri, v, r.busy[v], q, cnt)
				}
				occ += int32(cnt)
			}
		}
		if occ != r.occ {
			return fmt.Errorf("network: router %d occ=%d but its buffers hold %d phits", ri, r.occ, occ)
		}
		queued := len(n.out[ri][0].msgs) + len(n.out[ri][1].msgs)
		if n.act.Has(ri) == n.idle(ri) {
			return fmt.Errorf("network: router %d active=%v with %d phits and %d queued messages", ri, n.act.Has(ri), occ, queued)
		}
		phits += int64(occ)
		msgs += int64(queued)
	}
	if phits != n.actPhits || msgs != n.actMsgs.Load() {
		return fmt.Errorf("network: actPhits=%d actMsgs=%d but a scan finds %d phits and %d messages",
			n.actPhits, n.actMsgs.Load(), phits, msgs)
	}
	if err := n.act.Check(); err != nil {
		return fmt.Errorf("network: active set: %w", err)
	}
	return nil
}
