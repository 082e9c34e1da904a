package mem

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// flat is the memory's model: the non-zero words by address over a
// memory of the same geometry, beside the blocks that have held a
// non-zero word since the last restore and whether one was written past
// the pages internal memory covers. Those two fix what the backing store
// must have allocated.
type flat struct {
	size, imem int
	words      map[int]word.Word
	blocks     map[int]bool
	grown      bool
}

func newFlat(cfg Config) *flat {
	cfg = cfg.withDefaults()
	return &flat{size: cfg.ImemWords + cfg.EmemWords, imem: cfg.ImemWords,
		words: map[int]word.Word{}, blocks: map[int]bool{}}
}

func (f *flat) inBounds(addr, n int) bool { return addr >= 0 && addr+n <= f.size }

func (f *flat) write(addr int, w word.Word) {
	if w == 0 {
		delete(f.words, addr)
		return
	}
	f.words[addr] = w
	f.blocks[addr/16] = true
	if addr >= pagesFor(f.imem)*128 {
		f.grown = true
	}
}

// restored is the allocation a restore leaves: the blocks holding a
// non-zero word, under a directory that reaches past internal memory
// only if one of them does.
func (f *flat) restored() {
	f.blocks, f.grown = map[int]bool{}, false
	for a := range f.words {
		f.blocks[a/16] = true
		f.grown = f.grown || a >= pagesFor(f.imem)*128
	}
}

func (f *flat) sorted() []int {
	addrs := make([]int, 0, len(f.words))
	for a := range f.words {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// encode and digest spell out the checkpoint section and the digest fold
// from the words alone, at the addresses sorted returned, so the block
// layout can never leak into either.
func (f *flat) encode(addrs []int) []byte {
	e := &wire.Encoder{}
	e.Int(f.size)
	e.Int(f.imem)
	run, cur := 0, word.Word(0)
	emit := func(n int, w word.Word) {
		if n == 0 {
			return
		}
		if run > 0 && w == cur {
			run += n
			return
		}
		if run > 0 {
			e.U32(uint32(run))
			e.U64(uint64(cur))
		}
		run, cur = n, w
	}
	at := 0
	for _, a := range addrs {
		emit(a-at, 0)
		emit(1, f.words[a])
		at = a + 1
	}
	emit(f.size-at, 0)
	e.U32(uint32(run))
	e.U64(uint64(cur))
	return e.Bytes()
}

func (f *flat) digest(h uint64, addrs []int) uint64 {
	h = mix(h, uint64(f.size)|uint64(f.imem)<<32)
	for _, a := range addrs {
		h = mix(h, uint64(a))
		h = mix(h, uint64(f.words[a]))
	}
	return h
}

// fuzzGeometries are the memories FuzzMemory draws from: the default SRAM
// over a short DRAM, and a small memory whose SRAM ends inside a block
// and whose size is no multiple of a block or a page.
var fuzzGeometries = [...]Config{
	{ImemWords: DefaultImemWords, EmemWords: 4096},
	{ImemWords: 100, EmemWords: 37},
}

// Operations FuzzMemory decodes: an op byte, then its arguments. An
// address is two bytes taken modulo the size plus 32, less 16, so
// accesses just outside the memory are drawn too.
const (
	opWrite       = iota // address, value byte (0 writes a zero word)
	opWriteZero          // address
	opLoad               // address, count byte, pattern byte
	opFillCfut           // address, count byte
	opRead               // address
	opRestore            // checkpoint, restore into a fresh memory
	opRestoreOver        // checkpoint, restore into a memory holding other blocks; spread byte
	opWriteDRAM          // offset byte past internal memory, value byte (0 reads as 1)
	numOps
)

// value turns a byte into a word: 0 is the zero word, every other byte
// a distinct non-zero word of one of the sixteen tags.
func value(b byte) word.Word {
	if b == 0 {
		return 0
	}
	return word.New(word.Tag(b>>4), int32(b)*0x01010101)
}

// loadWords is the image an opLoad writes: all zeros for pattern 0,
// otherwise words with a zero wherever pattern·(i+1) is a multiple of
// 256.
func loadWords(n int, pattern byte) []word.Word {
	ws := make([]word.Word, n)
	for i := range ws {
		ws[i] = value(byte(int(pattern) * (i + 1)))
	}
	return ws
}

// memOps assembles FuzzMemory inputs.
type memOps []byte

func (o memOps) append(bs ...byte) memOps { return append(o, bs...) }

func (o memOps) addr(a int) memOps { return append(o, byte(a>>8), byte(a)) }

// at encodes addr for a memory of size words, as the decoder reads it.
func (o memOps) at(op byte, addr, size int) memOps {
	return append(o, op).addr((addr + 16) % (size + 32))
}

// FuzzMemory drives a memory and its flat model through the same
// sequence of operations and after every step compares what the memory
// reports: the words the step touched and every non-zero word, the
// footprint and heap the step must leave allocated, the digest and the
// checkpoint bytes; after the last step every word is read.
func FuzzMemory(f *testing.F) {
	const size0 = DefaultImemWords + 4096
	ring := memOps{}.at(opLoad, 0, size0).append(5, 7).at(opLoad, 64, size0).append(3, 9)
	f.Add(uint8(0), []byte(ring))
	exchange := ring.at(opFillCfut, 3000, size0).append(255).at(opWrite, 3255, size0).append(0x61).
		at(opLoad, 3100, size0).append(40, 3)
	f.Add(uint8(0), []byte(exchange.append(opRestore).at(opRead, 3001, size0)))
	dram := ring.at(opWriteZero, DefaultImemWords+200, size0).append(opWriteDRAM, 3, 0x25).
		at(opLoad, DefaultImemWords+1000, size0).append(200, 1).at(opWrite, DefaultImemWords+1010, size0).append(0)
	f.Add(uint8(0), []byte(dram.append(opRestore)))
	zeros := memOps{}.at(opWriteZero, 17, size0).at(opLoad, 500, size0).append(100, 0).
		at(opWrite, 6000, size0).append(0).at(opWrite, 40, size0).append(0x12).at(opWrite, 40, size0).append(0)
	f.Add(uint8(0), []byte(zeros.append(opRestore).at(opRead, 40, size0)))
	f.Add(uint8(0), []byte(exchange.append(opRestoreOver, 5).at(opWrite, 3300, size0).append(0x7f).append(opRestoreOver, 200)))
	const size1 = 137
	odd := memOps{}.at(opLoad, 90, size1).append(30, 5).at(opWrite, 136, size1).append(0xee).
		at(opWrite, 137, size1).append(1).at(opLoad, 130, size1).append(9, 1).append(opWriteDRAM, 0, 0x33)
	f.Add(uint8(1), []byte(odd.append(opRestore).append(opRestoreOver, 3)))
	f.Fuzz(runMemOps)
}

// maxMemOpBytes bounds one FuzzMemory input to about 200 steps; the
// mutator grows inputs far past what one memory needs to fill and
// restore, and every step compares the whole image.
const maxMemOpBytes = 1024

// runMemOps is FuzzMemory's body.
func runMemOps(t *testing.T, geom uint8, ops []byte) {
	cfg := fuzzGeometries[int(geom)%len(fuzzGeometries)]
	m, md := New(cfg), newFlat(cfg)
	ops = ops[:min(len(ops), maxMemOpBytes)]
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	addr := func() int {
		a := int(next())<<8 | int(next())
		return a%(md.size+32) - 16
	}
	checkErr := func(step int, what string, err error, ok bool) {
		t.Helper()
		if ok && err != nil || !ok && !errors.Is(err, ErrBounds) {
			t.Fatalf("step %d: %s: error %v, in bounds %v", step, what, err, ok)
		}
	}
	for step := 0; len(ops) > 0; step++ {
		op := next() % numOps
		lo, n := 0, 0
		switch op {
		case opWrite, opWriteZero:
			lo, n = addr(), 1
			w := word.Word(0)
			if op == opWrite {
				w = value(next())
			}
			ok := md.inBounds(lo, 1)
			checkErr(step, "write", m.Write(int32(lo), w), ok)
			if ok {
				md.write(lo, w)
			}
		case opWriteDRAM:
			lo, n = md.imem+int(next())%(md.size-md.imem), 1
			w := value(next())
			if w == 0 {
				w = word.Int(1)
			}
			checkErr(step, "DRAM write", m.Write(int32(lo), w), true)
			md.write(lo, w)
		case opLoad:
			lo, n = addr(), int(next())
			ws := loadWords(n, next())
			ok := md.inBounds(lo, n)
			checkErr(step, "load", m.Load(int32(lo), ws), ok)
			for i := 0; ok && i < n; i++ {
				md.write(lo+i, ws[i])
			}
		case opFillCfut:
			lo, n = addr(), int(next())
			ok := md.inBounds(lo, n)
			checkErr(step, "FillCfut", m.FillCfut(int32(lo), n), ok)
			for i := 0; ok && i < n; i++ {
				md.write(lo+i, word.Cfut(0))
			}
		case opRead:
			lo, n = addr(), 1
		case opRestore, opRestoreOver:
			e := &wire.Encoder{}
			m.SaveState(e)
			m = New(cfg)
			if op == opRestoreOver {
				spread := int(next()) + 1
				for a := 0; a < md.size; a += spread * 61 {
					m.Write(int32(a), word.Int(int32(a)+1))
				}
				m.Write(int32(md.size-1), word.Int(-1))
			}
			if err := m.RestoreState(wire.NewDecoder(e.Bytes())); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			md.restored()
		}
		for a := lo - 1; a <= lo+n; a++ {
			checkRead(t, step, m, md, a)
		}
		compareFlat(t, step, m, md)
	}
	for a := -1; a <= md.size; a++ {
		checkRead(t, -1, m, md, a)
	}
}

func checkRead(t *testing.T, step int, m *Memory, md *flat, a int) {
	t.Helper()
	got, err := m.Read(int32(a))
	if !md.inBounds(a, 1) {
		if !errors.Is(err, ErrBounds) {
			t.Fatalf("step %d: Read(%d) outside %d words: %v", step, a, md.size, err)
		}
		return
	}
	if err != nil || got != md.words[a] {
		t.Fatalf("step %d: Read(%d) = %v, %v; model %v", step, a, got, err, md.words[a])
	}
}

func compareFlat(t *testing.T, step int, m *Memory, md *flat) {
	t.Helper()
	for a, w := range md.words {
		if got, _ := m.Read(int32(a)); got != w {
			t.Fatalf("step %d: Read(%d) = %v, model %v", step, a, got, w)
		}
	}
	entries := pagesFor(md.imem)
	if md.grown {
		entries = pagesFor(md.size)
	}
	pages := map[int]bool{}
	for b := range md.blocks {
		pages[b/8] = true
	}
	e, l, b := m.Footprint()
	if e != entries || l != len(pages) || b != len(md.blocks) {
		t.Fatalf("step %d: footprint %d entries, %d leaves, %d blocks; model %d, %d, %d",
			step, e, l, b, entries, len(pages), len(md.blocks))
	}
	if heap := int64(entries*8 + len(pages)*64 + len(md.blocks)*128); m.HeapBytes() != heap {
		t.Fatalf("step %d: HeapBytes %d, model %d", step, m.HeapBytes(), heap)
	}
	addrs := md.sorted()
	if m.StateDigest(5) != md.digest(5, addrs) {
		t.Fatalf("step %d: digest differs from the model's", step)
	}
	e2 := &wire.Encoder{}
	m.SaveState(e2)
	if !bytes.Equal(e2.Bytes(), md.encode(addrs)) {
		t.Fatalf("step %d: checkpoint bytes differ from the model's", step)
	}
}
