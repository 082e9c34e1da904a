package stats

import (
	"bytes"
	"slices"
	"testing"

	"jmachine/internal/ckpt/wire"
)

// table is the handler table's model: a map from ip to counters and the
// ip of the class now executing.
type table struct {
	instrs, threads uint64
	byIP            map[int32]HandlerStats
	cur             int32
	hasCur          bool
}

func (m *table) setCurrent(ip int32) {
	if _, ok := m.byIP[ip]; !ok {
		m.byIP[ip] = HandlerStats{}
	}
	m.cur, m.hasCur = ip, true
}

func (m *table) count(k uint64) {
	m.instrs += k
	if m.hasCur {
		h := m.byIP[m.cur]
		h.Instrs += k
		m.byIP[m.cur] = h
	}
}

func (m *table) sortedIPs() []int32 {
	ips := make([]int32, 0, len(m.byIP))
	for ip := range m.byIP {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	return ips
}

// encode is the checkpoint a node in the model's state writes: the
// counters (all zero but Instrs and Threads), the table in ascending ip
// order and the current ip.
func (m *table) encode() []byte { return m.encodeRows(m.sortedIPs()) }

// encodeRows is encode with the table's rows written for ips, in order.
func (m *table) encodeRows(ips []int32) []byte {
	e := &wire.Encoder{}
	for range NumCats {
		e.I64(0)
	}
	e.U64(m.instrs)
	e.U64(m.threads)
	for range 2 + 2*2 + 3 {
		e.U64(0)
	}
	e.Int(len(ips))
	for _, ip := range ips {
		h := m.byIP[ip]
		e.I32(ip)
		e.U64(h.Invocations)
		e.U64(h.Instrs)
		e.U64(h.MsgWords)
	}
	cur := curSentinel
	if m.hasCur {
		cur = m.cur
	}
	e.I32(cur)
	return e.Bytes()
}

func (m *table) digest(h uint64) uint64 {
	for range NumCats {
		h = mix(h, 0)
	}
	h = mix(h, m.instrs)
	h = mix(h, m.threads)
	for range 2 + 2*2 + 3 {
		h = mix(h, 0)
	}
	for _, ip := range m.sortedIPs() {
		s := m.byIP[ip]
		h = mix(h, uint64(uint32(ip)))
		h = mix(h, s.Invocations)
		h = mix(h, s.Instrs)
		h = mix(h, s.MsgWords)
	}
	return h
}

// fuzzIPs is the ip range the fuzzer draws classes from: -1 (background
// threads) and a few handler addresses, so classes land on both sides of
// the current one.
const fuzzIPs = 12

// FuzzHandlerTable drives a node's handler table with dispatches,
// resumes, instruction counts and checkpoint round trips, two bytes an
// operation, and after each one compares every class, the busiest-class
// order, the digest and the checkpoint bytes with the model's.
func FuzzHandlerTable(f *testing.F) {
	f.Add([]byte{0, 10, 2, 0, 0, 3, 2, 0, 1, 10, 3, 7})      // a class inserted below cur, then a resume
	f.Add([]byte{0, 0, 0, 11, 4, 0, 2, 0, 0, 5, 4, 1, 3, 9}) // background and top classes around a round trip
	f.Add([]byte{1, 6, 3, 200, 1, 2, 2, 0, 4, 0, 1, 6, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := NewNode()
		m := &table{byIP: map[int32]HandlerStats{}}
		for step := 0; step+1 < len(ops) && step < 512; step += 2 {
			op, arg := ops[step]%5, ops[step+1]
			ip := int32(arg%fuzzIPs) - 1
			switch op {
			case 0:
				words := int(arg >> 4)
				n.BeginThread(ip, words)
				m.threads++
				m.setCurrent(ip)
				h := m.byIP[ip]
				h.Invocations++
				h.MsgWords += uint64(words)
				m.byIP[ip] = h
			case 1:
				n.SetCurrent(ip)
				m.setCurrent(ip)
			case 2:
				n.CountInstr()
				m.count(1)
			case 3:
				n.CountInstrN(uint64(arg))
				m.count(uint64(arg))
			case 4: // checkpoint, then restore into a fresh node
				e := &wire.Encoder{}
				n.SaveState(e)
				n = NewNode()
				if err := n.RestoreState(wire.NewDecoder(e.Bytes())); err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
			}
			compareTable(t, step, n, m)
		}
	})
}

func compareTable(t *testing.T, step int, n *Node, m *table) {
	t.Helper()
	if n.Instrs != m.instrs || n.Threads != m.threads {
		t.Fatalf("step %d: instrs/threads %d/%d, model %d/%d", step, n.Instrs, n.Threads, m.instrs, m.threads)
	}
	for ip := int32(-2); ip < fuzzIPs; ip++ {
		want, ok := m.byIP[ip]
		got := n.Handler(ip)
		if (got != nil) != ok || got != nil && *got != want {
			t.Fatalf("step %d: Handler(%d) = %+v, model %+v (present %v)", step, ip, got, want, ok)
		}
	}
	ips := m.sortedIPs()
	slices.SortStableFunc(ips, func(a, b int32) int {
		ia, ib := m.byIP[a].Invocations, m.byIP[b].Invocations
		switch {
		case ia > ib:
			return -1
		case ia < ib:
			return 1
		}
		return 0
	})
	if top := (&Machine{Nodes: []*Node{n}}).TopHandlers(fuzzIPs + 1); !slices.Equal(top, ips) {
		t.Fatalf("step %d: TopHandlers %v, model %v", step, top, ips)
	}
	if n.StateDigest(3) != m.digest(3) {
		t.Fatalf("step %d: digest differs from the model's", step)
	}
	e := &wire.Encoder{}
	n.SaveState(e)
	if !bytes.Equal(e.Bytes(), m.encode()) {
		t.Fatalf("step %d: checkpoint bytes differ from the model's", step)
	}
}

// TestRestoreRejectsDisorder: SaveState writes the table in strictly
// ascending ip order, so RestoreState refuses a repeated or descending
// ip.
func TestRestoreRejectsDisorder(t *testing.T) {
	m := &table{byIP: map[int32]HandlerStats{3: {Invocations: 1}, 5: {Invocations: 2}}}
	for _, c := range []struct {
		ips        []int32
		wantReject bool
	}{
		{[]int32{3, 5}, false},
		{[]int32{3, 3}, true},
		{[]int32{5, 3}, true},
	} {
		err := NewNode().RestoreState(wire.NewDecoder(m.encodeRows(c.ips)))
		if (err != nil) != c.wantReject {
			t.Errorf("rows %v: restore error %v, want rejected %v", c.ips, err, c.wantReject)
		}
	}
}
