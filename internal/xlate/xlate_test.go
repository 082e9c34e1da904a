package xlate

import (
	"bytes"
	"testing"
	"testing/quick"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

func TestEnterLookup(t *testing.T) {
	tb := New(0, 0)
	k := word.New(word.TagPtr, 42)
	v := word.New(word.TagAddr, 1000)
	tb.Enter(k, v)
	got, ok := tb.Lookup(k)
	if !ok || got != v {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if _, ok := tb.Lookup(word.New(word.TagPtr, 43)); ok {
		t.Error("lookup of absent key succeeded")
	}
	s := tb.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestKeysDistinguishedByTag(t *testing.T) {
	tb := New(0, 0)
	tb.Enter(word.New(word.TagPtr, 7), word.Int(1))
	tb.Enter(word.New(word.TagSym, 7), word.Int(2))
	if v, ok := tb.Lookup(word.New(word.TagPtr, 7)); !ok || v.Data() != 1 {
		t.Error("ptr-tagged key lost")
	}
	if v, ok := tb.Lookup(word.New(word.TagSym, 7)); !ok || v.Data() != 2 {
		t.Error("sym-tagged key lost")
	}
}

func TestReplaceExisting(t *testing.T) {
	tb := New(0, 0)
	k := word.New(word.TagPtr, 1)
	tb.Enter(k, word.Int(10))
	tb.Enter(k, word.Int(20))
	if v, _ := tb.Lookup(k); v.Data() != 20 {
		t.Errorf("replacement lost: %v", v)
	}
}

func TestEvictionOnConflict(t *testing.T) {
	// A 1-set, 2-way table: the third distinct key must evict the LRU.
	tb := New(1, 2)
	k1 := word.New(word.TagPtr, 1)
	k2 := word.New(word.TagPtr, 2)
	k3 := word.New(word.TagPtr, 3)
	tb.Enter(k1, word.Int(1))
	tb.Enter(k2, word.Int(2))
	tb.Lookup(k1) // k2 becomes LRU
	tb.Enter(k3, word.Int(3))
	if _, ok := tb.Probe(k2); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := tb.Probe(k1); !ok {
		t.Error("MRU entry evicted")
	}
	if tb.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", tb.Stats().Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	tb := New(0, 0)
	k := word.New(word.TagPtr, 5)
	tb.Enter(k, word.Int(1))
	tb.Invalidate(k)
	if _, ok := tb.Probe(k); ok {
		t.Error("invalidated key still present")
	}
	tb.Invalidate(k) // idempotent
}

func TestProbeHasNoSideEffects(t *testing.T) {
	tb := New(0, 0)
	tb.Probe(word.New(word.TagPtr, 9))
	s := tb.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("probe affected stats: %+v", s)
	}
}

func TestLookupAfterManyInsertsProperty(t *testing.T) {
	// Whatever was most recently entered for a key is returned by an
	// immediate lookup, regardless of eviction history.
	f := func(keys []int32) bool {
		tb := New(8, 2)
		for _, k := range keys {
			kw := word.New(word.TagPtr, k)
			tb.Enter(kw, word.Int(k^0x5A5A))
			v, ok := tb.Lookup(kw)
			if !ok || v.Data() != k^0x5A5A {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMissRatio(t *testing.T) {
	s := Stats{Hits: 99, Misses: 1}
	if r := s.MissRatio(); r != 0.01 {
		t.Errorf("MissRatio = %v", r)
	}
	if (Stats{}).MissRatio() != 0 {
		t.Error("empty MissRatio should be 0")
	}
}

// TestUnallocatedTableIsAnEmptyTable pins what lazy allocation must not
// change: a table nothing has ENTERed digests and serializes
// byte-identically to an allocated empty one, counts lookups as misses,
// and restores from either's bytes unallocated.
func TestUnallocatedTableIsAnEmptyTable(t *testing.T) {
	lazy, empty := New(0, 0), New(0, 0)
	empty.alloc()
	if lazy.Allocated() || !empty.Allocated() {
		t.Fatal("allocation state wrong before any ENTER")
	}
	encode := func(tb *Table) []byte {
		e := &wire.Encoder{}
		tb.SaveState(e)
		return e.Bytes()
	}
	if lazy.StateDigest(7) != empty.StateDigest(7) {
		t.Error("unallocated and empty tables digest differently")
	}
	if !bytes.Equal(encode(lazy), encode(empty)) {
		t.Error("unallocated and empty tables encode differently")
	}
	k := word.New(word.TagPtr, 3)
	lazy.Invalidate(k)
	if _, ok := lazy.Probe(k); ok || lazy.Allocated() {
		t.Error("Probe or Invalidate of an unallocated table found or allocated something")
	}
	lazy.Lookup(k)
	empty.Lookup(k)
	if lazy.Stats() != empty.Stats() || lazy.Allocated() {
		t.Errorf("lookup miss: unallocated %+v, empty %+v", lazy.Stats(), empty.Stats())
	}
	restored := New(0, 0)
	restored.Enter(k, word.Int(1))
	if err := restored.RestoreState(wire.NewDecoder(encode(empty))); err != nil {
		t.Fatal(err)
	}
	if restored.Allocated() || restored.StateDigest(7) != empty.StateDigest(7) {
		t.Error("an empty checkpoint did not restore to an unallocated table")
	}
	empty.Enter(k, word.Int(1))
	if err := restored.RestoreState(wire.NewDecoder(encode(empty))); err != nil {
		t.Fatal(err)
	}
	if v, ok := restored.Probe(k); !ok || v != word.Int(1) || restored.StateDigest(7) != empty.StateDigest(7) {
		t.Error("a non-empty checkpoint did not restore its entry")
	}
}
