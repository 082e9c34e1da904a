package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// batches cuts an op stream into requests of n ops.
func batches(ops []KVOp, n int) []ReplayReq {
	var reqs []ReplayReq
	for i := 0; i+n <= len(ops); i += n {
		reqs = append(reqs, ReplayReq{Ops: ops[i : i+n]})
	}
	return reqs
}

// serveReq sends one request through the manager, as the HTTP layer would.
func serveReq(t *testing.T, g *Manager, id string, req ReplayReq) error {
	t.Helper()
	s, release, err := g.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	switch {
	case len(req.Ops) > 0:
		_, err = s.KVApply(req.Ops)
	case req.Step > 0:
		_, err = s.StepCycles(req.Step)
	default:
		_, _, err = s.Run(req.Run)
	}
	return err
}

func digestOf(t *testing.T, g *Manager, id string) (uint64, error) {
	t.Helper()
	s, release, err := g.Acquire(id)
	if err != nil {
		return 0, err
	}
	defer release()
	_, d, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d, nil
}

func replayDigest(t *testing.T, spec Spec, reqs []ReplayReq) uint64 {
	t.Helper()
	_, d, err := Replay(spec, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// disk is a session directory's durable state at one moment.
type disk struct {
	ckpt, journal []byte
}

func readDisk(t *testing.T, dir string) disk {
	t.Helper()
	c, err := os.ReadFile(filepath.Join(dir, "state.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	return disk{c, j}
}

// plant writes a session directory holding d (no journal when
// d.journal is nil) and returns a manager recovered from it.
func plant(t *testing.T, spec Spec, d disk) *Manager {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "s000000")
	if err := os.Mkdir(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := writeSpec(dir, spec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.ckpt"), d.ckpt, 0o666); err != nil {
		t.Fatal(err)
	}
	if d.journal != nil {
		if err := os.WriteFile(filepath.Join(dir, "journal"), d.journal, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestJournalCrashMatrix drives one session through several
// compactions, keeping the directory's bytes after every request, and
// then restores from every damaged or out-of-step combination a crash
// can leave. Each must come back at the digest serve.Replay gives for
// the acknowledged requests, or fail with ErrJournal — never serve a
// third state.
func TestJournalCrashMatrix(t *testing.T) {
	root := t.TempDir()
	g, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	created, err := g.Create(kvSpec(8, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	id, spec, dir := created.ID, created.Spec, filepath.Join(root, created.ID)

	// kv traffic with a step and a run in it, so every record kind is
	// cut, flipped and replayed.
	reqs := batches(GenOps(11, 32, 4*48), 4)
	reqs[5] = ReplayReq{Step: 300}
	reqs[17] = ReplayReq{Run: 1000}
	disks := []disk{readDisk(t, dir)} // disks[k]: after k requests
	compactions := []int{}            // requests whose commit checkpointed
	frames := [][]byte{nil}           // frames[k]: request k's journal frame
	for k, req := range reqs {
		before := g.Stat().Checkpoints
		if err := serveReq(t, g, id, req); err != nil {
			t.Fatal(err)
		}
		d := readDisk(t, dir)
		s, release, _ := g.Acquire(id)
		frames = append(frames, record{seq: uint64(k + 1), cycle: s.m.Cycle(), req: req}.encode())
		release()
		if g.Stat().Checkpoints > before {
			compactions = append(compactions, k+1)
			if len(d.journal) != len(journalMagic) {
				t.Fatalf("request %d compacted but left %d journal bytes", k+1, len(d.journal))
			}
		} else if want := append(append([]byte(journalMagic), disks[k].journal[min(len(disks[k].journal), len(journalMagic)):]...), frames[k+1]...); !bytes.Equal(d.journal, want) {
			t.Fatalf("request %d: journal is not its predecessor plus one frame", k+1)
		}
		disks = append(disks, d)
	}
	if len(compactions) < 3 {
		t.Fatalf("%d compactions in %d requests, want >= 3", len(compactions), len(reqs))
	}
	want := func(k int) uint64 { return replayDigest(t, spec, reqs[:k]) }
	check := func(name string, d disk, k int) *Manager {
		t.Helper()
		g := plant(t, spec, d)
		got, err := digestOf(t, g, "s000000")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w := want(k); got != w {
			t.Fatalf("%s: restored digest %016x, replay of %d requests gives %016x", name, got, k, w)
		}
		return g
	}

	// last is the latest request that left at least three records, so
	// there is a middle one to damage.
	recordsAt := func(k int) int {
		n := k
		for _, c := range compactions {
			if c <= k {
				n = k - c
			}
		}
		return n
	}
	last := len(reqs)
	for recordsAt(last) < 3 {
		last--
	}
	full := disks[last]
	prevLen := len(disks[last-1].journal)

	t.Run("cut the last record at every byte", func(t *testing.T) {
		for cut := prevLen; cut <= len(full.journal); cut++ {
			k := last - 1
			if cut == len(full.journal) {
				k = last
			}
			check("cut", disk{full.ckpt, full.journal[:cut]}, k)
		}
	})

	t.Run("append after a torn tail", func(t *testing.T) {
		g := check("torn", disk{full.ckpt, full.journal[:len(full.journal)-7]}, last-1)
		if err := serveReq(t, g, "s000000", reqs[last-1]); err != nil {
			t.Fatal(err)
		}
		again := readDisk(t, filepath.Join(g.Dir(), "s000000"))
		if !bytes.Equal(again.journal, full.journal) {
			t.Fatal("re-serving the torn request did not rebuild the journal byte for byte")
		}
		check("torn, appended, recovered", again, last)
	})

	t.Run("compaction cut between checkpoint and truncate", func(t *testing.T) {
		for _, k := range compactions {
			// The new checkpoint beside the journal it was about to
			// empty: every record is at or below the checkpoint's seq.
			stale := append(append([]byte(nil), disks[k-1].journal...), frames[k]...)
			g := check("stale journal", disk{disks[k].ckpt, stale}, k)
			// Serving on appends seq k+1 after the skipped records.
			if k < len(reqs) {
				if err := serveReq(t, g, "s000000", reqs[k]); err != nil {
					t.Fatal(err)
				}
				check("stale journal, appended, recovered", readDisk(t, filepath.Join(g.Dir(), "s000000")), k+1)
			}
		}
	})

	t.Run("journal behind its checkpoint", func(t *testing.T) {
		// An emptied journal beside the checkpoint before the one that
		// emptied it cannot happen in order; it must not pass as state.
		k := compactions[1]
		j := append(append([]byte(nil), disks[k].journal...), frames[k+1]...)
		g := plant(t, spec, disk{disks[k-1].ckpt, j})
		if _, err := digestOf(t, g, "s000000"); !errors.Is(err, ErrJournal) {
			t.Fatalf("hole in the sequence: got %v, want ErrJournal", err)
		}
	})

	t.Run("flip every byte of a middle record", func(t *testing.T) {
		lo := len(disks[last-2].journal)
		for at := lo; at < prevLen; at++ {
			j := append([]byte(nil), full.journal...)
			j[at] ^= 0x41
			g := plant(t, spec, disk{full.ckpt, j})
			if _, err := digestOf(t, g, "s000000"); !errors.Is(err, ErrJournal) {
				t.Fatalf("byte %d flipped: got %v, want ErrJournal", at, err)
			}
		}
		j := append([]byte(nil), full.journal...)
		j[3] ^= 0x41
		g := plant(t, spec, disk{full.ckpt, j})
		if _, err := digestOf(t, g, "s000000"); !errors.Is(err, ErrJournal) {
			t.Fatalf("magic flipped: got %v, want ErrJournal", err)
		}
	})

	t.Run("diverging replay", func(t *testing.T) {
		// A well-formed record whose request does not end on the cycle
		// it recorded.
		recs, _, err := scanJournal(append([]byte(journalMagic), frames[1]...))
		if err != nil || len(recs) != 1 {
			t.Fatal(len(recs), err)
		}
		recs[0].cycle++
		g := plant(t, spec, disk{disks[0].ckpt, append([]byte(journalMagic), recs[0].encode()...)})
		if _, err := digestOf(t, g, "s000000"); !errors.Is(err, ErrJournal) {
			t.Fatalf("diverging replay: got %v, want ErrJournal", err)
		}
	})

	t.Run("journal deleted", func(t *testing.T) {
		g := plant(t, spec, disk{full.ckpt, nil})
		if _, err := digestOf(t, g, "s000000"); !errors.Is(err, ErrNoSession) || len(g.Stat().Broken) != 1 {
			t.Fatalf("no journal at start-up: got %v and broken %q, want ErrNoSession and one", err, g.Stat().Broken)
		}
		g = check("before deleting", full, last)
		g.Shutdown()
		os.Remove(filepath.Join(g.Dir(), "s000000", "journal"))
		if _, err := digestOf(t, g, "s000000"); !errors.Is(err, ErrJournal) {
			t.Fatalf("journal deleted under a running manager: got %v, want ErrJournal", err)
		}
	})

	t.Run("header cut short", func(t *testing.T) {
		g := check("half a magic string", disk{disks[0].ckpt, []byte(journalMagic[:5])}, 0)
		if err := serveReq(t, g, "s000000", reqs[0]); err != nil {
			t.Fatal(err)
		}
		check("half a magic string, appended, recovered", readDisk(t, filepath.Join(g.Dir(), "s000000")), 1)
	})

	t.Run("second manager on the live directory", func(t *testing.T) {
		before := readDisk(t, dir)
		g2, err := NewManager(root, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := digestOf(t, g2, id)
		if err != nil {
			t.Fatal(err)
		}
		if w := want(len(reqs)); got != w {
			t.Fatalf("second manager restored %016x, want %016x", got, w)
		}
		if after := readDisk(t, dir); !bytes.Equal(after.ckpt, before.ckpt) || !bytes.Equal(after.journal, before.journal) {
			t.Fatal("recovering a live directory changed its files")
		}
		// The first manager serves on, undisturbed.
		more := append(reqs[:len(reqs):len(reqs)], batches(GenOps(12, 32, 8), 4)...)
		for _, req := range more[len(reqs):] {
			if err := serveReq(t, g, id, req); err != nil {
				t.Fatal(err)
			}
		}
		got, err = digestOf(t, g, id)
		if err != nil {
			t.Fatal(err)
		}
		if w := replayDigest(t, spec, more); got != w {
			t.Fatalf("first manager at %016x after the second looked, want %016x", got, w)
		}
	})
}

// TestDurableWorkCounters pins what a request costs in durable I/O: one
// synced append, plus a checkpoint (two more syncs: file and directory)
// each time the journal reaches its replay budget — and nothing for an
// eviction, a restore or a shutdown. At the parent of the journal every
// request wrote a checkpoint, and a second one when it evicted.
func TestDurableWorkCounters(t *testing.T) {
	requests := 1000
	if testing.Short() {
		requests = 200
	}
	g, err := NewManager(t.TempDir(), 1) // one slot: every request evicts and restores
	if err != nil {
		t.Fatal(err)
	}
	var ids [2]string
	for i := range ids {
		s, err := g.Create(kvSpec(8, 32, 4))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
	}
	base := g.Stat()
	if base.Checkpoints != 2 || base.Fsyncs != 4 || base.JournalBytes != 0 {
		t.Fatalf("after two creates: %+v, want 2 checkpoints, 4 fsyncs, no journal bytes", base)
	}
	reqs := batches(GenOps(11, 32, 4*requests/2), 4)
	for _, req := range reqs {
		for _, id := range ids {
			if err := serveReq(t, g, id, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := g.Stat()
	ckpts := st.Checkpoints - base.Checkpoints
	if got, want := st.Fsyncs-base.Fsyncs, int64(requests)+2*ckpts; got != want {
		t.Errorf("%d fsyncs for %d requests and %d checkpoints, want %d", got, requests, ckpts, want)
	}
	if perReq := float64(ckpts) / float64(requests); perReq >= 0.15 || ckpts == 0 {
		t.Errorf("%d checkpoints in %d requests (%.3f per request), want some and < 0.15", ckpts, requests, perReq)
	}
	if !testing.Short() && ckpts != 98 {
		t.Errorf("%d checkpoints in 1000 requests at seed 11, pinned at 98: where compactions fall is a function of the stream", ckpts)
	}
	const frame = journalHeader + 4*8 + 4*9
	if got := st.JournalBytes; got != int64(requests*frame) {
		t.Errorf("%d journal bytes, want %d×%d", got, requests, frame)
	}
	if st.Restores < int64(requests)-2 {
		t.Errorf("%d restores in %d requests: the test meant every request to evict", st.Restores, requests)
	}
	if err := g.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if after := g.Stat(); after.Fsyncs != st.Fsyncs || after.Checkpoints != st.Checkpoints || after.JournalBytes != st.JournalBytes {
		t.Errorf("shutdown wrote: %+v, before it %+v", after, st)
	}
	for _, id := range ids {
		got, err := digestOf(t, g, id)
		if err != nil {
			t.Fatal(err)
		}
		if want := replayDigest(t, kvSpec(8, 32, 4), reqs); got != want {
			t.Errorf("session %s digest %016x, want %016x", id, got, want)
		}
	}
}

// TestFailedRequestLeavesNoTrace: a request that is refused, or fails
// after the machine moved, must leave the session — live and recovered —
// where its acknowledged requests put it.
func TestFailedRequestLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	g, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := kvSpec(4, 16, 2)
	spec.Budget = 30 // a kv batch needs more: it fails with its ops in the mesh
	s, err := g.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	var acked []ReplayReq
	ack := func(req ReplayReq) {
		t.Helper()
		if err := serveReq(t, g, s.ID, req); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, req)
	}
	same := func(when string, g *Manager) {
		t.Helper()
		got, err := digestOf(t, g, s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := replayDigest(t, spec, acked); got != want {
			t.Errorf("%s: digest %016x, replay of the %d acknowledged requests gives %016x", when, got, len(acked), want)
		}
	}
	ack(ReplayReq{Step: 25})

	// Refused whole: the valid put ahead of the bad key is not injected.
	for _, bad := range [][]KVOp{
		{{Op: OpPut, Key: 1, Value: 5}, {Op: OpGet, Key: 999}},
		{{Op: OpPut, Key: 1, Value: 5}, {Op: 7, Key: 2}},
	} {
		if err := serveReq(t, g, s.ID, ReplayReq{Ops: bad}); err == nil {
			t.Fatalf("batch %v accepted", bad)
		}
		if !s.residentHint() {
			t.Error("a refused batch evicted the session")
		}
		same("after a refused batch", g)
	}
	ack(ReplayReq{Step: 20})

	// Fails mid-flight: the put is in the mesh when the budget runs out.
	if err := serveReq(t, g, s.ID, ReplayReq{Ops: []KVOp{{Op: OpPut, Key: 1, Value: 5}}}); err == nil {
		t.Fatal("a kv batch finished inside a 30-cycle budget; the test needs it to fail")
	}
	if s.residentHint() {
		t.Error("a request that failed after stepping left the session resident")
	}
	same("after a request that failed mid-flight", g)
	ack(ReplayReq{Step: 30})

	g2, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	same("recovered by a second manager", g2)
}

// TestBrokenDirectoriesAreSkipped: a creation killed half-way and a
// mangled spec.json each cost one session, not the daemon.
func TestBrokenDirectoriesAreSkipped(t *testing.T) {
	dir := t.TempDir()
	g, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	good, err := g.Create(kvSpec(4, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := digestOf(t, g, good.ID)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(good.Spec)
	if err != nil {
		t.Fatal(err)
	}
	mkdir := func(id string, files map[string][]byte) {
		t.Helper()
		if err := os.Mkdir(filepath.Join(dir, id), 0o777); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, id, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
	}
	good0 := readDisk(t, filepath.Join(dir, good.ID))
	// A kill -9 inside Create when spec.json was written first.
	mkdir("s000004", map[string][]byte{"spec.json": specJSON})
	// A spec.json cut short.
	mkdir("s000005", map[string][]byte{"spec.json": specJSON[:len(specJSON)/2], "state.ckpt": good0.ckpt, "journal": good0.journal})
	// A kill -9 inside Create now: everything but the rename. Not a session.
	mkdir("s000006", map[string][]byte{"spec.json.tmp": specJSON, "state.ckpt": good0.ckpt, "journal": good0.journal})

	g2, err := NewManager(dir, 2)
	if err != nil {
		t.Fatalf("one broken directory stopped recovery: %v", err)
	}
	if st := g2.Stat(); st.Sessions != 1 || len(st.Broken) != 2 {
		t.Errorf("recovered %d sessions and broken %q, want 1 and 2", st.Sessions, st.Broken)
	}
	if got, err := digestOf(t, g2, good.ID); err != nil || got != want {
		t.Errorf("the good session: digest %016x err %v, want %016x", got, err, want)
	}
	next, err := g2.Create(kvSpec(4, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "s000007" {
		t.Errorf("new session took id %s, want s000007: above every directory found, broken or not", next.ID)
	}
}

// TestSpecWithShardsRestores restores a session directory whose
// spec.json carries "shards": 4, as specs were written while a session
// could step on the parallel engine. The field is ignored: the session
// comes back at the digest serve.Replay gives for its requests.
func TestSpecWithShardsRestores(t *testing.T) {
	root := t.TempDir()
	g, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	created, err := g.Create(kvSpec(8, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	reqs := batches(GenOps(5, 32, 4*6), 4)
	for _, req := range reqs {
		if err := serveReq(t, g, created.ID, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Shutdown(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, created.ID, "spec.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["shards"] = 4
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	g2, err := NewManager(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Shutdown()
	got, err := digestOf(t, g2, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := replayDigest(t, created.Spec, reqs); got != want {
		t.Errorf("restored digest %016x, Replay gives %016x", got, want)
	}
}

func TestOpKindJSON(t *testing.T) {
	ops := []KVOp{{Op: OpPut, Key: 2, Value: 7}, {Op: OpGet, Key: 3}}
	data, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"op":"put","key":2,"value":7},{"op":"get","key":3}]`; string(data) != want {
		t.Errorf("marshalled %s, want %s", data, want)
	}
	var back []KVOp
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, ops) {
		t.Errorf("round trip gave %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`[{"op":"del","key":1}]`), &back); err == nil {
		t.Error(`op "del" decoded`)
	}
	if _, err := json.Marshal(KVOp{}); err == nil {
		t.Error("the zero op marshalled")
	}
}

// fuzzBase is a well-formed journal of one record of each kind.
func fuzzBase() ([]byte, []record) {
	recs := []record{
		{seq: 1, cycle: 163, req: ReplayReq{Ops: GenOps(11, 32, 4)}},
		{seq: 2, cycle: 463, req: ReplayReq{Step: 300}},
		{seq: 3, cycle: 1463, req: ReplayReq{Run: 1000}},
	}
	b := []byte(journalMagic)
	for _, r := range recs {
		b = append(b, r.encode()...)
	}
	return b, recs
}

// FuzzJournal: the decoder never panics; the valid prefix it reports
// decodes, alone, to the same records without error; and a well-formed
// journal keeps its records whatever is appended to it.
func FuzzJournal(f *testing.F) {
	base, baseRecs := fuzzBase()
	f.Add([]byte{})
	f.Add([]byte(journalMagic))
	f.Add(base)
	f.Add(base[:len(base)-5])
	f.Add(base[len(journalMagic):])
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, n, err := scanJournal(b)
		if n < 0 || n > len(b) {
			t.Fatalf("valid prefix %d of %d bytes", n, len(b))
		}
		again, n2, err2 := scanJournal(b[:n])
		if err2 != nil || n2 != n || !reflect.DeepEqual(again, recs) {
			t.Fatalf("prefix %d rescanned to %d records, prefix %d, err %v; first scan gave %d records (err %v)",
				n, len(again), n2, err2, len(recs), err)
		}
		longer, n3, _ := scanJournal(append(base[:len(base):len(base)], b...))
		if n3 < len(base) || len(longer) < len(baseRecs) || !reflect.DeepEqual(longer[:len(baseRecs)], baseRecs) {
			t.Fatalf("appending %d bytes to a well-formed journal changed its %d records (prefix %d of %d)",
				len(b), len(baseRecs), n3, len(base))
		}
	})
}
