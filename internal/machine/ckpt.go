// Checkpoint serialization for the whole machine: the cycle counter,
// watchdog state, event-horizon parking state, the network, and every
// node. internal/ckpt frames this section, adds the subsystem sections
// (rt, chaos), and handles file I/O; the encoding here is what makes a
// restored machine digest-identical to the captured one.
package machine

import (
	"fmt"
	"sort"

	"jmachine/internal/ckpt/wire"
)

// ckptFormat guards the machine-section layout; bump when the encoding
// below changes shape.
const ckptFormat = 1

// SnapshotCycle returns the cycle a snapshot taken now represents: the
// cycle through which all state is consistent. Between run loops this
// is simply the machine cycle; while a cycle hook for cycle C runs it
// is C-1 — nothing of cycle C has touched network or node state yet
// (hook-owned state like retransmit deadlines or a chaos cursor lives
// in the hooks' own sections, and re-running a hook at C over restored
// state is a no-op by the horizon contract), so a restored machine
// re-enters cycle C and replays it exactly.
func (m *Machine) SnapshotCycle() int64 { return m.caughtUpTo }

// SnapshotDigest returns the StateDigest the machine will report
// immediately after a snapshot taken now is restored: the digest
// evaluated at the snapshot cycle, which differs from Cycle() only
// while a cycle hook is executing.
func (m *Machine) SnapshotDigest() uint64 {
	saved := m.cycle
	m.cycle = m.caughtUpTo
	h := m.StateDigest()
	m.cycle = saved
	return h
}

// progFingerprint folds the program's shape — instruction count, code
// image size, and the sorted label table — so a checkpoint cannot be
// restored into a machine running different code.
func (m *Machine) progFingerprint() uint64 {
	p := m.Nodes[0].Prog
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	mix(uint64(len(p.Instrs)))
	mix(uint64(p.Image.Len()))
	labels := make([]string, 0, len(p.Labels))
	for name := range p.Labels { //jm:maporder keys are collected then sorted before mixing; order cannot leak
		labels = append(labels, name)
	}
	sort.Strings(labels)
	for _, name := range labels {
		for _, b := range []byte(name) {
			mix(uint64(b))
		}
		mix(uint64(uint32(p.Labels[name])))
	}
	return h
}

// SaveState serializes the machine section: configuration fingerprint
// (verified on restore), cycle and watchdog state, the event-horizon
// parking state, the network, and every node. Parked nodes are synced
// (their lagging clocks and idle statistics caught up, without
// unparking) first, so the encoded per-node state is reference-exact.
func (m *Machine) SaveState(e *wire.Encoder) {
	m.CatchUp()
	e.U32(ckptFormat)
	e.Int(m.Cfg.DimX)
	e.Int(m.Cfg.DimY)
	e.Int(m.Cfg.DimZ)
	e.U64(m.progFingerprint())
	e.I64(m.SnapshotCycle())
	e.U64(m.WatchdogTrips)
	e.Bool(m.sigValid)
	e.I64(m.lastMove)
	for _, v := range [...]uint64{m.lastSig.Instrs, m.lastSig.Threads, m.lastSig.Faults,
		m.lastSig.PhitHops, m.lastSig.Delivered, m.lastSig.Returned} {
		e.U64(v)
	}
	for i := range m.parked {
		e.Bool(m.parked[i])
		e.I64(m.wakeAt[i])
		e.Bool(m.needWake[i])
	}
	m.Net.SaveState(e)
	for _, n := range m.Nodes {
		n.SaveState(e)
	}
	e.U64(m.SnapshotDigest())
}

// RestoreState rebuilds the machine from a checkpoint taken by a
// machine with identical configuration (dimensions, memory and queue
// geometry, program). It must be called between cycles — after the
// machine and its layers (runtime, reliable delivery, chaos, engine)
// are attached and the workload's start-up writes have run, before the
// run loop starts. On success the machine's StateDigest equals the
// digest recorded at capture; any mismatch (or any malformed input) is
// an error and the machine must be discarded.
func (m *Machine) RestoreState(d *wire.Decoder) error {
	if f := d.U32(); f != ckptFormat {
		return fmt.Errorf("machine: checkpoint section format %d, want %d", f, ckptFormat)
	}
	dx, dy, dz := d.Int(), d.Int(), d.Int()
	if dx != m.Cfg.DimX || dy != m.Cfg.DimY || dz != m.Cfg.DimZ {
		return fmt.Errorf("machine: checkpoint mesh %d×%d×%d != configured %d×%d×%d",
			dx, dy, dz, m.Cfg.DimX, m.Cfg.DimY, m.Cfg.DimZ)
	}
	if fp := d.U64(); fp != m.progFingerprint() {
		return fmt.Errorf("machine: checkpoint program fingerprint %016x != running program %016x",
			fp, m.progFingerprint())
	}
	cycle := d.I64()
	if cycle < 0 {
		return fmt.Errorf("machine: negative checkpoint cycle %d", cycle)
	}
	m.cycle = cycle
	m.caughtUpTo = cycle
	m.WatchdogTrips = d.U64()
	m.sigValid = d.Bool()
	m.lastMove = d.I64()
	m.lastSig = ProgressCounters{
		Instrs: d.U64(), Threads: d.U64(), Faults: d.U64(),
		PhitHops: d.U64(), Delivered: d.U64(), Returned: d.U64(),
	}
	nParked := int64(0)
	for i := range m.parked {
		m.parked[i] = d.Bool()
		m.wakeAt[i] = d.I64()
		m.needWake[i] = d.Bool()
		if m.parked[i] {
			nParked++
		}
		m.hot.Put(i, m.isHot(i))
	}
	m.nParked.Store(nParked)
	if err := d.Err(); err != nil {
		return err
	}
	if err := m.Net.RestoreState(d); err != nil {
		return err
	}
	for _, n := range m.Nodes {
		if err := n.RestoreState(d); err != nil {
			return err
		}
	}
	want := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if got := m.StateDigest(); got != want {
		return fmt.Errorf("machine: restored state digest %016x != captured %016x (codec gap or config drift)",
			got, want)
	}
	return nil
}
