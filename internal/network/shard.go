package network

// Sharded mesh stepping.
//
// The mesh has a conservative lookahead of one cycle: a phit pushed
// into a neighbouring router at cycle t cannot move again before t+1,
// and every admission decision is made against start-of-cycle buffer
// occupancy (reconstructed via popStamp, or frozen in snapOcc across
// shard boundaries). Partitioning the routers into contiguous node-id
// slabs therefore lets each slab step a full cycle concurrently: the
// only cross-slab effects — boundary phit pushes and delivery/drop
// hook invocations — are staged during the parallel phase and applied
// by a single goroutine at the commit rendezvous, in exactly the order
// the sequential sweep would have produced them. See docs/ENGINE.md
// for the full determinism argument.

// stagedPush is a boundary phit crossing into another shard, recorded
// during the parallel phase and applied at commit. Each input buffer
// has a single producer and each physical link carries at most one
// phit per cycle (linkStamp), so staged pushes never conflict and
// their application order is immaterial.
type stagedPush struct {
	nb   int32 // destination node id
	v    int8  // priority
	port int8  // destination input port
	p    phitRef
}

// hookEvent is a deferred deliver/drop hook invocation. Hooks can
// touch cross-shard state (the reliable-delivery runtime's maps, ack
// injection into any node's outbox), so in parallel mode they are
// replayed single-threaded at commit, in the sequential sweep's order:
// all priority-1 events in ascending router id, then all priority-0.
type hookEvent struct {
	drop   bool
	node   int32
	reason DropReason
	m      *Message
}

// shard is one contiguous slab of routers stepped by a single
// goroutine, with its staging areas and a private Stats delta folded
// into the network's at every commit.
type shard struct {
	lo, hi int // node id range [lo, hi)

	// snapBufs lists this slab's input buffers whose producing
	// neighbour lives in another shard; Snapshot freezes their
	// occupancy before any shard starts popping.
	snapBufs []*buf

	stats   Stats
	dPhits  int64 // in-flight phit delta, folded into actPhits at commit
	visits  int64 // router visits, folded into routerVisits at commit
	pushes  []stagedPush
	events  []hookEvent
	v0Start int // index in events where the priority-0 pass begins
}

// ShardRun partitions the mesh into k contiguous node-id slabs for
// parallel stepping. The caller (internal/engine) drives one cycle as:
//
//	Begin()                  // coordinator: advance the cycle counter
//	Snapshot(s)              // each shard, in parallel
//	— barrier —
//	StepShard(s)             // each shard, in parallel
//	— barrier —
//	Commit()                 // one goroutine
//
// The network's own Step must not be called while a ShardRun is
// driving it. Results are byte-identical to sequential stepping for
// any k ≥ 1 and any partition.
type ShardRun struct {
	n      *Network
	shards []shard
}

// NewShardRun builds a k-way partition. k is clamped to [1, nodes].
// Requires a non-zero launch latency: with LaunchCycles == 0 a message
// injected by a commit-phase hook (a reliable-delivery ack) could
// start flowing in its injection cycle under the sequential sweep but
// not under staged replay.
func NewShardRun(n *Network, k int) *ShardRun {
	if n.cfg.LaunchCycles <= 0 {
		panic("network: sharded stepping requires LaunchCycles >= 1")
	}
	nodes := len(n.routers)
	if k < 1 {
		k = 1
	}
	if k > nodes {
		k = nodes
	}
	sr := &ShardRun{n: n, shards: make([]shard, k)}
	for s := 0; s < k; s++ {
		sh := &sr.shards[s]
		sh.lo, sh.hi = s*nodes/k, (s+1)*nodes/k
		for ri := sh.lo; ri < sh.hi; ri++ {
			for q := 0; q < 6; q++ {
				// Input port q is fed by the neighbour in direction q.
				f := n.nbr[ri][q]
				if f >= 0 && (int(f) < sh.lo || int(f) >= sh.hi) {
					sh.snapBufs = append(sh.snapBufs,
						&n.routers[ri].in[0][q], &n.routers[ri].in[1][q])
				}
			}
		}
	}
	return sr
}

// Load returns shard s's network activity for epoch batching
// (internal/engine): the number of its routers holding a phit or a
// queued outbox message, read off the network's active set. Zero means
// stepping the shard is a no-op, so the engine can skip it without
// touching the barrier. Exact between cycles, whoever injected.
func (sr *ShardRun) Load(s int) int64 {
	return int64(sr.n.act.Count(sr.shards[s].lo, sr.shards[s].hi))
}

// Shards returns the partition size.
func (sr *ShardRun) Shards() int { return len(sr.shards) }

// NodeRange returns shard s's node id range [lo, hi).
func (sr *ShardRun) NodeRange(s int) (lo, hi int) {
	return sr.shards[s].lo, sr.shards[s].hi
}

// Begin advances the network's cycle counter (the coordinator calls it
// once per cycle, before releasing the shards).
func (sr *ShardRun) Begin() { sr.n.cycle++ }

// Snapshot freezes the start-of-cycle occupancy of shard s's boundary
// input buffers. Runs in parallel across shards; each shard touches
// only buffers it consumes, before any shard pops anything.
func (sr *ShardRun) Snapshot(s int) {
	for _, b := range sr.shards[s].snapBufs {
		b.snapOcc = b.n
	}
}

// StepShard steps shard s's routers through one cycle, staging
// boundary pushes and hook events. Runs in parallel across shards
// after all snapshots are taken.
func (sr *ShardRun) StepShard(s int) {
	sh := &sr.shards[s]
	sh.pushes = sh.pushes[:0]
	sh.events = sh.events[:0]
	n := sr.n
	cyc := n.cycle
	ctx := stepCtx{st: &sh.stats, sh: sh, dPhits: &sh.dPhits, visits: &sh.visits}
	n.stepRange(sh.lo, sh.hi, 1, cyc, ctx)
	sh.v0Start = len(sh.events)
	n.stepRange(sh.lo, sh.hi, 0, cyc, ctx)
}

// Commit completes the cycle after every shard has finished stepping:
// it lands the staged boundary phits, folds the shard-local stats into
// the network's, and replays the deferred deliver/drop hooks in the
// sequential sweep's order. Must run on a single goroutine while the
// others wait.
func (sr *ShardRun) Commit() {
	n := sr.n
	cyc := n.cycle
	for i := range sr.shards {
		sh := &sr.shards[i]
		for _, sp := range sh.pushes {
			r := &n.routers[sp.nb]
			r.push(int(sp.v), int(sp.port), sp.p)
			r.occ++
			n.act.Add(int(sp.nb))
		}
		n.stats.add(&sh.stats)
		sh.stats = Stats{}
		n.actPhits += sh.dPhits
		n.routerVisits += sh.visits
		sh.dPhits, sh.visits = 0, 0
	}
	// Priority-1 events of every shard (shards are ordered by node id,
	// so concatenation preserves ascending router order), then
	// priority-0 — exactly the sequential sweep's hook order.
	for i := range sr.shards {
		sh := &sr.shards[i]
		for _, ev := range sh.events[:sh.v0Start] {
			sr.fire(ev, cyc)
		}
	}
	for i := range sr.shards {
		sh := &sr.shards[i]
		for _, ev := range sh.events[sh.v0Start:] {
			sr.fire(ev, cyc)
		}
	}
	// Staging is consumed here, not lazily at the next StepShard: under
	// epoch batching a shard can sit out whole cycles, and a stale
	// staging area must not replay at a later commit.
	for i := range sr.shards {
		sh := &sr.shards[i]
		sh.pushes = sh.pushes[:0]
		sh.events = sh.events[:0]
		sh.v0Start = 0
	}
}

func (sr *ShardRun) fire(ev hookEvent, cyc int64) {
	n := sr.n
	if ev.drop {
		for _, fn := range n.dropFns {
			fn(int(ev.node), ev.m, ev.reason, cyc)
		}
		n.release(ev.m)
		return
	}
	for _, fn := range n.deliverFns {
		fn(int(ev.node), ev.m, cyc)
	}
	n.release(ev.m)
}

// add folds a per-cycle stats delta into s. All fields are commutative
// sums, so the fold order never affects the totals.
func (s *Stats) add(d *Stats) {
	s.PhitHops += d.PhitHops
	s.BisectionPhits += d.BisectionPhits
	for v := 0; v < 2; v++ {
		s.DeliveredMsgs[v] += d.DeliveredMsgs[v]
		s.DeliveredWords[v] += d.DeliveredWords[v]
		s.LatencySum[v] += d.LatencySum[v]
	}
	s.DeliveryStalls += d.DeliveryStalls
	s.ReturnedMsgs += d.ReturnedMsgs
	s.Retransmits += d.Retransmits
	s.DroppedMsgs += d.DroppedMsgs
	s.CorruptDrops += d.CorruptDrops
	s.DupDrops += d.DupDrops
	s.StallsInjected += d.StallsInjected
}
