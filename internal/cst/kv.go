// Distributed key-value/RPC workload on the CST object runtime.
//
// This is the serving shape of the J-Machine's message-driven dispatch
// (PAPER.md §2: message arrival creates a task in under a microsecond),
// cast as a modern KV backend: every key is a globally-named object
// whose ID must be translated (XLATE) at the owning node on every use —
// exactly a KV service's lookup path. A request enters the machine at a
// gateway node (the host pushes it into the hardware message queue, the
// way a network interface would), the gateway forwards it one hop to
// the key's owner, the owner translates the global ID to its local
// segment and performs the operation, and the reply returns to the
// gateway, which timestamps it into a mailbox ring the host harvests.
//
// Requests and replies are ordinary priority-0 messages; queue
// back-pressure, mesh contention, and xlate-miss faults behave exactly
// as in the paper's applications. The whole exchange is deterministic:
// a fixed request sequence injected at fixed cycles reproduces the
// machine's StateDigest bit-for-bit.
package cst

import (
	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/mem"
	"jmachine/internal/rt"
	"jmachine/internal/word"
)

// KV node-memory layout. Constants are word addresses in each node's
// internal memory unless noted; the store lives in external memory
// (DRAM — a KV working set does not fit on-chip).
const (
	// KVApp is the base of the KV runtime's node-local words.
	KVApp = rt.AppBase

	KVOffNodesMask  = 0 // numNodes-1 (node count must be a power of two)
	KVOffMailCursor = 1 // replies landed on this gateway so far
	KVOffMyID       = 2 // this node's linear id

	// KVMailBase is the reply-mailbox ring: KVMailRecords records of
	// KVMailRecWords words each — [seq, value, version, arrivalCycle].
	KVMailBase     = 128
	KVMailRecords  = 128 // power of two (the handler masks the cursor)
	KVMailRecWords = 4

	// KVStoreBase is the first external-memory word of the key store;
	// each key owns a 2-word record [value, version].
	KVStoreBase = 8192

	// KVKeyBase offsets global key IDs: key k's object name is
	// (TagPtr, KVKeyBase|k). A multiple of every supported node count,
	// so owner(k) = k & mask holds for the raw ID too.
	KVKeyBase = 1 << 16
)

// KV handler labels.
const (
	LKVGGet = "kv.gget" // gateway: [hdr, key, seq] — forward a get
	LKVGPut = "kv.gput" // gateway: [hdr, key, value, seq] — forward a put
	LKVGet  = "kv.get"  // owner: [hdr, key, seq, replyAddr]
	LKVPut  = "kv.put"  // owner: [hdr, key, value, seq, replyAddr]
	LKVRep  = "kv.rep"  // gateway: [hdr, seq, value, version] — mailbox
)

// BuildKV emits the KV service handlers. Callers append rt.BuildLib
// (the fault and restore handlers) and assemble.
func BuildKV(b *asm.Builder) {
	// kv.gget: [hdr, key, seq] — look up the owner's router address in
	// the node table and forward a 4-word get carrying our own router
	// address (NNR) as the reply destination.
	b.Label(LKVGGet).
		MoveI(isa.A1, KVApp).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		And(isa.R0, asm.Mem(isa.A1, KVOffNodesMask)).
		Add(isa.R0, asm.Imm(NodeTable)).
		Move(isa.A0, asm.R(isa.R0)).
		Send(asm.Mem(isa.A0, 0)).
		MoveHdr(isa.R1, LKVGet, 4).
		Send(asm.R(isa.R1)).
		Send(asm.Mem(isa.A3, 1)).
		Send(asm.Mem(isa.A3, 2)).
		SendE(asm.R(isa.NNR)).
		Suspend()

	// kv.gput: [hdr, key, value, seq] — forward a 5-word put.
	b.Label(LKVGPut).
		MoveI(isa.A1, KVApp).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		And(isa.R0, asm.Mem(isa.A1, KVOffNodesMask)).
		Add(isa.R0, asm.Imm(NodeTable)).
		Move(isa.A0, asm.R(isa.R0)).
		Send(asm.Mem(isa.A0, 0)).
		MoveHdr(isa.R1, LKVPut, 5).
		Send(asm.R(isa.R1)).
		Send(asm.Mem(isa.A3, 1)).
		Send(asm.Mem(isa.A3, 2)).
		Send(asm.Mem(isa.A3, 3)).
		SendE(asm.R(isa.NNR)).
		Suspend()

	// kv.get: [hdr, key, seq, replyAddr] — rebuild the global ID from
	// the integer key, XLATE it to the local store segment, and reply
	// [seq, value, version].
	b.Label(LKVGet).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Or(isa.R0, asm.Imm(KVKeyBase)).
		Wtag(isa.R0, asm.Imm(int32(word.TagPtr))).
		Xlate(isa.A2, asm.R(isa.R0)).
		Send(asm.Mem(isa.A3, 3)).
		MoveHdr(isa.R1, LKVRep, 4).
		Send(asm.R(isa.R1)).
		Send(asm.Mem(isa.A3, 2)).
		Send(asm.Mem(isa.A2, 0)).
		SendE(asm.Mem(isa.A2, 1)).
		Suspend()

	// kv.put: [hdr, key, value, seq, replyAddr] — store the value, bump
	// the version, reply [seq, storedValue, newVersion].
	b.Label(LKVPut).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Or(isa.R0, asm.Imm(KVKeyBase)).
		Wtag(isa.R0, asm.Imm(int32(word.TagPtr))).
		Xlate(isa.A2, asm.R(isa.R0)).
		Move(isa.R1, asm.Mem(isa.A3, 2)).
		St(isa.R1, asm.Mem(isa.A2, 0)).
		Move(isa.R2, asm.Mem(isa.A2, 1)).
		Add(isa.R2, asm.Imm(1)).
		St(isa.R2, asm.Mem(isa.A2, 1)).
		Send(asm.Mem(isa.A3, 4)).
		MoveHdr(isa.R1, LKVRep, 4).
		Send(asm.R(isa.R1)).
		Send(asm.Mem(isa.A3, 3)).
		Send(asm.Mem(isa.A2, 0)).
		SendE(asm.Mem(isa.A2, 1)).
		Suspend()

	// kv.rep: [hdr, seq, value, version] — append to the mailbox ring
	// with the arrival cycle (CYC), then advance the cursor. The host
	// harvests records it has not yet consumed; it must drain within
	// KVMailRecords replies or the ring wraps over unread records.
	b.Label(LKVRep).
		MoveI(isa.A1, KVApp).
		Move(isa.R0, asm.Mem(isa.A1, KVOffMailCursor)).
		Move(isa.R2, asm.R(isa.R0)).
		And(isa.R2, asm.Imm(KVMailRecords-1)).
		Lsh(isa.R2, asm.Imm(2)).
		Add(isa.R2, asm.Imm(KVMailBase)).
		Move(isa.A0, asm.R(isa.R2)).
		Move(isa.R1, asm.Mem(isa.A3, 1)).
		St(isa.R1, asm.Mem(isa.A0, 0)).
		Move(isa.R1, asm.Mem(isa.A3, 2)).
		St(isa.R1, asm.Mem(isa.A0, 1)).
		Move(isa.R1, asm.Mem(isa.A3, 3)).
		St(isa.R1, asm.Mem(isa.A0, 2)).
		Move(isa.R1, asm.R(isa.CYC)).
		St(isa.R1, asm.Mem(isa.A0, 3)).
		Add(isa.R0, asm.Imm(1)).
		St(isa.R0, asm.Mem(isa.A1, KVOffMailCursor)).
		Suspend()
}

// BuildKVProgram assembles the complete KV service program (handlers
// plus the runtime library).
func BuildKVProgram() *asm.Program {
	b := asm.NewBuilder()
	BuildKV(b)
	rt.BuildLib(b)
	return b.MustAssemble()
}

// KVKeyWord returns key k's global object name.
func KVKeyWord(k int32) word.Word {
	return word.New(word.TagPtr, KVKeyBase|k)
}

// SetupKVNode initializes node id for the KV service: the node-local
// constants, the router-address table, a zeroed mailbox ring, and —
// for every key this node owns — a published global name mapping the
// key's ID to its 2-word store record in external memory. keys is the
// machine-wide key-space size.
func SetupKVNode(r *rt.Runtime, m *machine.Machine, id, keys int) {
	n := m.Nodes[id]
	numNodes := m.NumNodes()
	must(n.Mem.Write(KVApp+KVOffNodesMask, word.Int(int32(numNodes-1))))
	must(n.Mem.Write(KVApp+KVOffMailCursor, word.Int(0)))
	must(n.Mem.Write(KVApp+KVOffMyID, word.Int(int32(id))))
	for i := 0; i < numNodes; i++ {
		must(n.Mem.Write(NodeTable+int32(i), m.Net.NodeWord(i)))
	}
	for i := int32(0); i < KVMailRecords*KVMailRecWords; i++ {
		must(n.Mem.Write(KVMailBase+i, word.Int(0)))
	}
	for k := id; k < keys; k += numNodes {
		slot := int32(k / numNodes)
		base := KVStoreBase + 2*slot
		r.DefineName(id, KVKeyWord(int32(k)), mem.Seg(base, 2))
		must(n.Mem.Write(base, word.Int(0)))
		must(n.Mem.Write(base+1, word.Int(0)))
	}
}

// KVGetMsg builds the host-injected gateway message for a get.
func KVGetMsg(p *asm.Program, key, seq int32) []word.Word {
	return []word.Word{
		word.MsgHeader(p.Entry(LKVGGet), 3),
		word.Int(key), word.Int(seq),
	}
}

// KVPutMsg builds the host-injected gateway message for a put.
func KVPutMsg(p *asm.Program, key, value, seq int32) []word.Word {
	return []word.Word{
		word.MsgHeader(p.Entry(LKVGPut), 4),
		word.Int(key), word.Int(value), word.Int(seq),
	}
}

// KVReply is one harvested mailbox record.
type KVReply struct {
	Seq     int32
	Value   int32
	Version int32
	Cycle   int32 // arrival cycle at the gateway (CYC timestamp)
}

// KVMailCursor reads how many replies have landed on gateway gw.
func KVMailCursor(m *machine.Machine, gw int) int32 {
	w, err := m.Nodes[gw].Mem.Read(KVApp + KVOffMailCursor)
	must(err)
	return w.Data()
}

// KVHarvest reads mailbox records [from, to) from gateway gw. The
// caller must keep to-from within KVMailRecords (the ring's capacity).
func KVHarvest(m *machine.Machine, gw int, from, to int32) []KVReply {
	mm := m.Nodes[gw].Mem
	out := make([]KVReply, 0, to-from)
	for i := from; i < to; i++ {
		base := KVMailBase + KVMailRecWords*(i%KVMailRecords)
		rd := func(off int32) int32 {
			w, err := mm.Read(base + off)
			must(err)
			return w.Data()
		}
		out = append(out, KVReply{Seq: rd(0), Value: rd(1), Version: rd(2), Cycle: rd(3)})
	}
	return out
}
