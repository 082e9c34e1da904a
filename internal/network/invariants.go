package network

import "fmt"

// CheckInvariants recomputes the network's derived bookkeeping from a
// full scan and returns an error naming the first disagreement: every
// occupied-port mask against its buffers, every buffered phit's tail
// flag and destination copy against its message, every router's occ
// against their sum, the active set against exactly the routers
// holding a phit or a queued message, the priority-1 set against
// exactly those holding a priority-1 phit or message, the O(1) Pending
// counters against the totals, both sets' summary levels
// (bitset.Set.Check), and the slot-block pool: a router holding a phit
// holds a block, a router holding a block is active, every slot past a
// buffer's phits and every free block is all zero, and the held and
// free blocks are distinct and number every block allocated. Call it between cycles (mid-cycle the sets are
// only supersets). For tests and equivalence harnesses; O(routers ×
// ports).
func (n *Network) CheckInvariants() error {
	var phits, msgs int64
	blocks := make(map[*slotBlock]bool, n.blocks)
	for ri := range n.routers {
		r := &n.routers[ri]
		if r.blk != nil {
			if n.idle(ri) {
				return fmt.Errorf("network: router %d holds a slot block but is idle", ri)
			}
			blocks[r.blk] = true
		} else if r.occ > 0 {
			return fmt.Errorf("network: router %d holds %d phits and no slot block", ri, r.occ)
		}
		occ := int32(0)
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				cnt := r.in[v][q].n
				if (cnt > 0) != (r.busy[v]>>q&1 != 0) {
					return fmt.Errorf("network: router %d busy[%d]=%07b but input %d holds %d phits", ri, v, r.busy[v], q, cnt)
				}
				occ += int32(cnt)
				for i := int(cnt); i < bufCap && r.blk != nil; i++ {
					if r.blk[v][q][i] != (phitRef{}) {
						return fmt.Errorf("network: router %d input %d/%d holds %d phits but slot %d is not clear", ri, v, q, cnt, i)
					}
				}
				for i := 0; i < int(cnt); i++ {
					p := &r.blk[v][q][i]
					if want := newPhit(p.m, p.idx, p.arrived); *p != want {
						return fmt.Errorf("network: router %d input %d/%d phit %d of %d has tail=%v dest=(%d,%d,%d), want %v (%d,%d,%d)",
							ri, v, q, p.idx, p.m.WirePhits(), p.tail, p.dx, p.dy, p.dz, want.tail, want.dx, want.dy, want.dz)
					}
				}
			}
		}
		if occ != r.occ {
			return fmt.Errorf("network: router %d occ=%d but its buffers hold %d phits", ri, r.occ, occ)
		}
		queued := len(n.out[ri][0].msgs) + len(n.out[ri][1].msgs)
		if n.act.Has(ri) == n.idle(ri) {
			return fmt.Errorf("network: router %d active=%v with %d phits and %d queued messages", ri, n.act.Has(ri), occ, queued)
		}
		if has1 := r.busy[1] != 0 || len(n.out[ri][1].msgs) != 0; n.act1.Has(ri) != has1 {
			return fmt.Errorf("network: router %d in the priority-1 set=%v with priority-1 ports %07b and %d queued priority-1 messages",
				ri, n.act1.Has(ri), r.busy[1], len(n.out[ri][1].msgs))
		}
		phits += int64(occ)
		msgs += int64(queued)
	}
	if phits != n.actPhits || msgs != n.actMsgs.Load() {
		return fmt.Errorf("network: actPhits=%d actMsgs=%d but a scan finds %d phits and %d messages",
			n.actPhits, n.actMsgs.Load(), phits, msgs)
	}
	held := len(blocks)
	for i, blk := range n.free {
		if *blk != (slotBlock{}) {
			return fmt.Errorf("network: free slot block %d is not clear", i)
		}
		blocks[blk] = true
	}
	if len(blocks) != held+len(n.free) || int64(len(blocks)) != n.blocks {
		return fmt.Errorf("network: %d slot blocks held and %d free (%d distinct), %d allocated",
			held, len(n.free), len(blocks), n.blocks)
	}
	if err := n.act.Check(); err != nil {
		return fmt.Errorf("network: active set: %w", err)
	}
	if err := n.act1.Check(); err != nil {
		return fmt.Errorf("network: priority-1 set: %w", err)
	}
	return nil
}
