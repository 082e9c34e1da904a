// Package mem models one J-Machine node's two-level memory.
//
// Each node pairs the MDP's 4K-word on-chip SRAM (internal memory, 2-cycle
// operand access) with 1 MByte of ECC DRAM (external memory, ~6-cycle
// latency). The two live in a single word address space: internal memory
// at [0, ImemWords) and external memory above it. Every word carries a
// 4-bit tag, so presence tags (cfut/fut) are first-class in memory exactly
// as in the register file.
//
// Local memory is referenced via segment descriptors that specify the
// base and length of each memory object; indexed accesses are bounds
// checked against the descriptor. System code may also use raw integer
// addresses (unchecked), which is how the tuned assembly applications
// address large arrays.
//
// The backing store is a two-level table, lazily materialized. A page
// directory of 128-word pages points at leaves of eight pointers, and
// each leaf entry at a 16-word block. A nil page or block reads as
// integer zero, and a block (with its leaf) is only allocated on the
// first non-zero write into it. The directory starts over internal
// memory alone and is extended over external memory on the first
// non-zero write there. Programs execute from the assembled image held
// machine-wide, so a node that writes a few dozen data words costs those
// words' blocks, a leaf per page they fall in and a 32-entry directory
// rather than the full 70K-word image — the difference between a
// 16K-node mesh fitting in memory or not.
package mem

import (
	"errors"
	"fmt"

	"jmachine/internal/word"
)

// Defaults mirror the prototype: a 4K-word SRAM and 1 MByte of DRAM.
// The DRAM default here is smaller than the hardware's so that 512-node
// simulations stay cheap; paper-scale memory is a Config away.
const (
	DefaultImemWords = 4096
	DefaultEmemWords = 65536
)

// Geometry. A directory entry covers a 128-word page: the default SRAM
// needs 32 entries, and a node that writes DRAM extends the directory to
// 544. A page's leaf holds eight pointers (64 B) to 16-word blocks
// (128 B), so a ring node's boot words (0–4) and application words at
// rt.AppBase (64–66) cost two blocks under one leaf. Blocks are sized by
// what nodes write (docs/PERF.md, "Compact node state"): 8-word blocks
// save under 3% of heap for nearly twice the objects on a dense image
// (34 blocks against 19 on an exchange node), and 32-word blocks hold
// more zeros on every workload.
const (
	pageShift  = 7
	pageWords  = 1 << pageShift
	blockShift = 4
	blockWords = 1 << blockShift
	blockMask  = blockWords - 1
	leafSize   = pageWords / blockWords
	leafMask   = leafSize - 1
)

// Config sizes a node memory.
type Config struct {
	ImemWords int // on-chip SRAM words (0 = DefaultImemWords)
	EmemWords int // off-chip DRAM words (0 = DefaultEmemWords)
}

func (c Config) withDefaults() Config {
	if c.ImemWords == 0 {
		c.ImemWords = DefaultImemWords
	}
	if c.EmemWords == 0 {
		c.EmemWords = DefaultEmemWords
	}
	return c
}

// ErrBounds is returned for accesses outside the node's address space or
// outside a segment descriptor's extent.
var ErrBounds = errors.New("mem: address out of bounds")

// block is one materialized block of the backing store, and leaf the
// blocks of one page.
type (
	block = [blockWords]word.Word
	leaf  = [leafSize]*block
)

// Memory is one node's storage.
type Memory struct {
	// pages is the page directory: it covers internal memory from New
	// and the whole address space once a non-zero word is written past
	// it. A nil page or block, or a page past the directory, reads as
	// word.Int(0).
	pages     []*leaf
	size      int // addressable words
	imemWords int
}

// New allocates a node memory. All words start as integer zero; no block
// is materialized until written.
func New(cfg Config) *Memory {
	cfg = cfg.withDefaults()
	return &Memory{
		pages:     make([]*leaf, pagesFor(cfg.ImemWords)),
		size:      cfg.ImemWords + cfg.EmemWords,
		imemWords: cfg.ImemWords,
	}
}

// pagesFor returns the number of pages that cover words words.
func pagesFor(words int) int { return (words + pageWords - 1) / pageWords }

// Size returns the total number of addressable words.
func (m *Memory) Size() int { return m.size }

// ImemWords returns the size of internal memory; external memory begins
// at this address.
func (m *Memory) ImemWords() int { return m.imemWords }

// IsInternal reports whether addr falls in on-chip SRAM. Access cost
// modelling in the processor core keys off this.
func (m *Memory) IsInternal(addr int32) bool {
	return addr >= 0 && int(addr) < m.imemWords
}

// Read returns the word at addr.
func (m *Memory) Read(addr int32) (word.Word, error) {
	if addr < 0 || int(addr) >= m.size {
		return 0, ErrBounds
	}
	return m.get(int(addr)), nil
}

// Write stores w at addr, replacing both data and tag. Writing integer
// zero to an unmaterialized block is a no-op — the block stays lazy.
func (m *Memory) Write(addr int32, w word.Word) error {
	if addr < 0 || int(addr) >= m.size {
		return ErrBounds
	}
	m.set(int(addr), w)
	return nil
}

// set stores w at a bounds-checked word index, materializing the block
// (its leaf, and the directory over the whole address space) only for
// non-zero words.
func (m *Memory) set(addr int, w word.Word) {
	pi := addr >> pageShift
	if pi >= len(m.pages) {
		if w == 0 {
			return
		}
		pages := make([]*leaf, pagesFor(m.size))
		copy(pages, m.pages)
		m.pages = pages
	}
	lf := m.pages[pi]
	if lf == nil {
		if w == 0 {
			return
		}
		lf = new(leaf)
		m.pages[pi] = lf
	}
	b := lf[addr>>blockShift&leafMask]
	if b == nil {
		if w == 0 {
			return
		}
		b = new(block)
		lf[addr>>blockShift&leafMask] = b
	}
	b[addr&blockMask] = w
}

// get returns the word at a bounds-checked word index.
func (m *Memory) get(addr int) word.Word {
	if pi := addr >> pageShift; pi < len(m.pages) {
		if lf := m.pages[pi]; lf != nil {
			if b := lf[addr>>blockShift&leafMask]; b != nil {
				return b[addr&blockMask]
			}
		}
	}
	return 0
}

// Load copies ws into memory starting at addr (host/loader operation,
// free of simulated cost).
func (m *Memory) Load(addr int32, ws []word.Word) error {
	if addr < 0 || int(addr)+len(ws) > m.size {
		return fmt.Errorf("%w: load [%d,%d) into %d words", ErrBounds, addr, int(addr)+len(ws), m.size)
	}
	for i, w := range ws {
		m.set(int(addr)+i, w)
	}
	return nil
}

// FillCfut marks n words starting at addr as awaiting values.
func (m *Memory) FillCfut(addr int32, n int) error {
	if addr < 0 || int(addr)+n > m.size {
		return ErrBounds
	}
	for i := 0; i < n; i++ {
		m.set(int(addr)+i, word.Cfut(0))
	}
	return nil
}

// Footprint reports the backing store's allocation: the directory's
// entries, the leaves under it and the blocks materialized under those.
func (m *Memory) Footprint() (tableEntries, leaves, blocks int) {
	for _, lf := range m.pages {
		if lf == nil {
			continue
		}
		leaves++
		for _, b := range lf {
			if b != nil {
				blocks++
			}
		}
	}
	return len(m.pages), leaves, blocks
}

// HeapBytes is the heap the backing store holds: 8 B per directory entry,
// 64 B per leaf and 128 B per block. The large-mesh tests pin it per
// node.
func (m *Memory) HeapBytes() int64 {
	entries, leaves, blocks := m.Footprint()
	return int64(entries)*8 + int64(leaves)*leafSize*8 + int64(blocks)*blockWords*8
}

// Segment descriptors.
//
// An ADDR-tagged word encodes a memory object: base address in the low 20
// bits and object length (words) in the high 12 bits. Objects may be
// relocated at will — heap compaction only requires re-ENTERing the
// descriptor under the object's global name.

const (
	segBaseBits = 20
	segBaseMask = 1<<segBaseBits - 1
	// SegMaxLen is the largest object a descriptor can describe.
	SegMaxLen = 1<<12 - 1
	// SegMaxBase is the largest base address a descriptor can hold.
	SegMaxBase = segBaseMask
)

// Seg builds a segment descriptor word.
func Seg(base int32, length int) word.Word {
	return word.New(word.TagAddr, int32(length)<<segBaseBits|base&segBaseMask)
}

// SegBase extracts the base address of a descriptor.
func SegBase(w word.Word) int32 { return w.Data() & segBaseMask }

// SegLen extracts the length of a descriptor.
func SegLen(w word.Word) int { return int(w.UData() >> segBaseBits) }

// SegAddr resolves an indexed access through a descriptor, enforcing
// bounds: reading slot i of an object of length n faults unless 0 ≤ i < n.
func SegAddr(desc word.Word, index int32) (int32, error) {
	if index < 0 || int(index) >= SegLen(desc) {
		return 0, fmt.Errorf("%w: index %d in segment of %d", ErrBounds, index, SegLen(desc))
	}
	return SegBase(desc) + index, nil
}
