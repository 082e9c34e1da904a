package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.ImemWords() != DefaultImemWords {
		t.Errorf("ImemWords = %d", m.ImemWords())
	}
	if m.Size() != DefaultImemWords+DefaultEmemWords {
		t.Errorf("Size = %d", m.Size())
	}
}

func TestInternalBoundary(t *testing.T) {
	m := New(Config{ImemWords: 16, EmemWords: 16})
	if !m.IsInternal(0) || !m.IsInternal(15) {
		t.Error("SRAM misclassified")
	}
	if m.IsInternal(16) || m.IsInternal(-1) {
		t.Error("DRAM or negative misclassified as internal")
	}
}

func TestReadWrite(t *testing.T) {
	m := New(Config{ImemWords: 8, EmemWords: 8})
	w := word.New(word.TagSym, 77)
	if err := m.Write(3, w); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(3)
	if err != nil || got != w {
		t.Fatalf("Read = %v, %v", got, err)
	}
	if _, err := m.Read(16); !errors.Is(err, ErrBounds) {
		t.Error("out-of-range read did not fault")
	}
	if err := m.Write(-1, w); !errors.Is(err, ErrBounds) {
		t.Error("negative write did not fault")
	}
}

func TestLoadAndFillCfut(t *testing.T) {
	m := New(Config{ImemWords: 8, EmemWords: 8})
	ws := []word.Word{word.Int(1), word.Int(2), word.Int(3)}
	if err := m.Load(2, ws); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		got, _ := m.Read(int32(2 + i))
		if got != w {
			t.Errorf("word %d = %v", i, got)
		}
	}
	if err := m.Load(14, ws); !errors.Is(err, ErrBounds) {
		t.Error("overlong load did not fault")
	}
	if err := m.FillCfut(0, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0)
	if !got.IsCfut() {
		t.Error("FillCfut did not tag")
	}
	if err := m.FillCfut(15, 2); !errors.Is(err, ErrBounds) {
		t.Error("overlong FillCfut did not fault")
	}
}

func TestSegmentDescriptors(t *testing.T) {
	d := Seg(1000, 16)
	if SegBase(d) != 1000 || SegLen(d) != 16 {
		t.Fatalf("descriptor fields: base=%d len=%d", SegBase(d), SegLen(d))
	}
	if d.Tag() != word.TagAddr {
		t.Errorf("descriptor tag = %v", d.Tag())
	}
	addr, err := SegAddr(d, 15)
	if err != nil || addr != 1015 {
		t.Errorf("SegAddr(15) = %d, %v", addr, err)
	}
	if _, err := SegAddr(d, 16); err == nil {
		t.Error("index == length did not fault")
	}
	if _, err := SegAddr(d, -1); err == nil {
		t.Error("negative index did not fault")
	}
}

func TestSegProperty(t *testing.T) {
	f := func(base int32, length uint16, idx int32) bool {
		b := base & SegMaxBase
		l := int(length) % (SegMaxLen + 1)
		d := Seg(b, l)
		if SegBase(d) != b || SegLen(d) != l {
			return false
		}
		addr, err := SegAddr(d, idx)
		if idx >= 0 && int(idx) < l {
			return err == nil && addr == b+idx
		}
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPageTableGrowsOnFirstExternalWrite pins the lazy geometry: the
// directory covers internal memory until a non-zero word is written
// past it, a zero write changes nothing, and neither the digest nor
// the checkpoint bytes depend on how far the directory reaches; a
// restore starts over from the internal-memory directory.
func TestPageTableGrowsOnFirstExternalWrite(t *testing.T) {
	const imemPages, allPages = DefaultImemWords / pageWords, (DefaultImemWords + DefaultEmemWords) / pageWords
	check := func(what string, m *Memory, entries, leaves, blocks int, heap int64) {
		t.Helper()
		e, l, b := m.Footprint()
		if e != entries || l != leaves || b != blocks || m.HeapBytes() != heap {
			t.Errorf("%s: %d directory entries, %d leaves, %d blocks, %d heap bytes; want %d, %d, %d, %d",
				what, e, l, b, m.HeapBytes(), entries, leaves, blocks, heap)
		}
	}
	encode := func(m *Memory) []byte {
		e := &wire.Encoder{}
		m.SaveState(e)
		return e.Bytes()
	}
	m := New(Config{})
	check("new", m, imemPages, 0, 0, 256)
	ext := int32(DefaultImemWords + 3*pageWords + 5)
	if err := m.Write(ext, 0); err != nil {
		t.Fatal(err)
	}
	check("zero write to external memory", m, imemPages, 0, 0, 256)
	if w, err := m.Read(ext); err != nil || w != 0 {
		t.Fatalf("read past the directory = %v, %v", w, err)
	}
	if err := m.Write(70, word.Int(1)); err != nil {
		t.Fatal(err)
	}
	check("internal write", m, imemPages, 1, 1, 448)
	if err := m.Write(90, 0); err != nil {
		t.Fatal(err)
	}
	check("zero write to a nil block under a leaf", m, imemPages, 1, 1, 448)
	short, shortDigest := encode(m), m.StateDigest(1)

	if err := m.Write(ext, word.Int(2)); err != nil {
		t.Fatal(err)
	}
	check("external write", m, allPages, 2, 2, 4736)
	if w, _ := m.Read(ext); w != word.Int(2) {
		t.Fatalf("external word = %v", w)
	}
	grown := encode(m)
	r := New(Config{})
	if err := r.RestoreState(wire.NewDecoder(grown)); err != nil {
		t.Fatal(err)
	}
	check("restored grown image", r, allPages, 2, 2, 4736)
	if r.StateDigest(1) != m.StateDigest(1) || !bytes.Equal(encode(r), grown) {
		t.Error("the grown image did not restore to itself")
	}

	// Zeroing the external word keeps its block and the grown
	// directory, but the image digests and encodes as it did before the
	// directory grew, and restores onto the internal-memory directory
	// alone.
	m.Write(ext, 0)
	if m.StateDigest(1) != shortDigest || !bytes.Equal(encode(m), short) {
		t.Error("a grown directory holding a zero block differs from the short directory")
	}
	if err := r.RestoreState(wire.NewDecoder(encode(m))); err != nil {
		t.Fatal(err)
	}
	check("restored short image", r, imemPages, 1, 1, 448)
	if r.StateDigest(1) != shortDigest {
		t.Error("the short image restored to a different digest")
	}
}

// TestPageGeometry pins the geometry in literal numbers: 128-word pages,
// a 32-entry directory over the default 4K-word SRAM and 544 entries
// once DRAM is written, and 16-word blocks under 8-pointer leaves, so
// words 15 and 16 land in two blocks of one leaf and words 127 and 128
// under two leaves. A directory entry costs 8 B, a leaf 64 B and a block
// 128 B.
func TestPageGeometry(t *testing.T) {
	m := New(Config{})
	check := func(what string, entries, leaves, blocks int, heap int64) {
		t.Helper()
		e, l, b := m.Footprint()
		if e != entries || l != leaves || b != blocks || m.HeapBytes() != heap {
			t.Errorf("%s: %d directory entries, %d leaves, %d blocks, %d heap bytes; want %d, %d, %d, %d",
				what, e, l, b, m.HeapBytes(), entries, leaves, blocks, heap)
		}
	}
	check("new", 32, 0, 0, 32*8)
	for _, c := range []struct {
		addr                    int32
		entries, leaves, blocks int
		heap                    int64
	}{
		{0, 32, 1, 1, 32*8 + 64 + 128},
		{15, 32, 1, 1, 32*8 + 64 + 128},
		{16, 32, 1, 2, 32*8 + 64 + 2*128},
		{127, 32, 1, 3, 32*8 + 64 + 3*128},
		{128, 32, 2, 4, 32*8 + 2*64 + 4*128},
		{DefaultImemWords, 544, 3, 5, 544*8 + 3*64 + 5*128},
	} {
		if err := m.Write(c.addr, word.Int(1)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("word %d", c.addr), c.entries, c.leaves, c.blocks, c.heap)
	}
}
