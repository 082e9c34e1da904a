package stats

import (
	"fmt"

	"jmachine/internal/ckpt/wire"
)

// curSentinel encodes "no thread class executing" for cur (-1 is a real
// handler key: background threads use ip = -1).
const curSentinel = int32(-0x80000000)

// SaveState serializes the node's counters and per-thread-class table.
// The table is written in its own ascending ip order; cur is stored as
// its class's ip and re-indexed on restore.
func (n *Node) SaveState(e *wire.Encoder) {
	for _, c := range n.Cycles {
		e.I64(c)
	}
	e.U64(n.Instrs)
	e.U64(n.Threads)
	e.U64(n.SendFaultCycles)
	e.U64(n.SendFaults)
	for v := 0; v < 2; v++ {
		e.U64(n.MsgsSent[v])
		e.U64(n.WordsSent[v])
	}
	e.U64(n.XlateFaults)
	e.U64(n.CfutFaults)
	e.U64(n.OverflowFaults)

	e.Int(len(n.classes))
	for _, c := range n.classes {
		e.I32(c.ip)
		e.U64(c.Invocations)
		e.U64(c.Instrs)
		e.U64(c.MsgWords)
	}
	cur := curSentinel
	if n.cur >= 0 {
		cur = n.classes[n.cur].ip
	}
	e.I32(cur)
}

// RestoreState rebuilds the node's counters and handler table.
func (n *Node) RestoreState(d *wire.Decoder) error {
	for c := range n.Cycles {
		n.Cycles[c] = d.I64()
	}
	n.Instrs = d.U64()
	n.Threads = d.U64()
	n.SendFaultCycles = d.U64()
	n.SendFaults = d.U64()
	for v := 0; v < 2; v++ {
		n.MsgsSent[v] = d.U64()
		n.WordsSent[v] = d.U64()
	}
	n.XlateFaults = d.U64()
	n.CfutFaults = d.U64()
	n.OverflowFaults = d.U64()

	n.classes = make([]class, d.Count(4+24))
	for i := range n.classes {
		c := &n.classes[i]
		c.ip = d.I32()
		c.Invocations = d.U64()
		c.Instrs = d.U64()
		c.MsgWords = d.U64()
		if i > 0 && c.ip <= n.classes[i-1].ip {
			return fmt.Errorf("stats: handler ip %d follows %d in checkpoint; want strictly ascending", c.ip, n.classes[i-1].ip)
		}
	}
	curIP := d.I32()
	n.cur = -1
	if curIP != curSentinel {
		i, ok := n.find(curIP)
		if !ok {
			return fmt.Errorf("stats: current handler ip %d missing from checkpoint table", curIP)
		}
		n.cur = i
	}
	return d.Err()
}
