package serve

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"jmachine/internal/asm"
	"jmachine/internal/ckpt"
	"jmachine/internal/ckpt/wire"
	"jmachine/internal/cst"
	"jmachine/internal/jlang"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/word"
)

// Session is one hosted machine. All simulation access goes through mu
// — the machine only ever steps on the goroutine holding it, so the
// fully concurrent HTTP layer above cannot perturb the deterministic
// core below.
type Session struct {
	ID   string
	Spec Spec // normalized

	mu       sync.Mutex
	resident bool
	m        *machine.Machine
	run      *sim.Run
	rec      *obs.Recorder
	obsBufs  []*bufio.Writer
	obsFiles []*os.File
	kv       *kvDriver

	// Durable state: state.ckpt, the machine as one request left it, and
	// journal, every request committed since.
	savers []ckpt.Saver // the checkpoint's sections after the machine's
	jr     *journal     // nil when ephemeral or not resident
	seq    commitSeq    // requests committed over the session's life
	ckptAt int64        // the machine cycle state.ckpt holds

	dir      string       // session directory ("" = ephemeral: no ckpt, no journal, no obs)
	lastUsed int64        // manager's LRU clock; guarded by the manager's mu
	cycle    atomic.Int64 // last observed cycle, for lock-free listings
	requests atomic.Int64 // mutating requests served
	restores atomic.Int64 // evict/restore round-trips survived

	fsyncs, checkpoints, journalBytes atomic.Int64 // durable I/O done, for Stats
	compactFails                      atomic.Int64 // compactions that failed after their request committed
}

// PersistError is a failure of a session's durable state — a journal
// append, a checkpoint write, a create or a restore — rather than of the
// request: the server's fault, answered 500, never 400.
type PersistError struct {
	Op  string
	Err error
}

func (e *PersistError) Error() string { return e.Op + ": " + e.Err.Error() }
func (e *PersistError) Unwrap() error { return e.Err }

// compactNodeCycles is the simulated work a journal may hold before a
// commit folds it into a checkpoint: at ~31 ns of replay per node·cycle
// and ~0.8 ms per checkpoint (docs/SERVE.md), 12 Ki — nine kv requests
// on 8 nodes — keeps a restore's replay under half a checkpoint write.
// Simulated work, not wall time, so checkpoints fall where the request
// stream puts them.
const compactNodeCycles = 12 << 10

// commitSeq is the committed-request count as a checkpoint section, so
// replay can skip journal records the checkpoint already holds.
type commitSeq uint64

func (q *commitSeq) CkptName() string         { return "serve.seq" }
func (q *commitSeq) CkptSave(e *wire.Encoder) { e.U64(uint64(*q)) }
func (q *commitSeq) CkptRestore(d *wire.Decoder) error {
	*q = commitSeq(d.U64())
	return d.Err()
}

func newSession(id string, spec Spec, dir string) *Session {
	return &Session{ID: id, Spec: spec, dir: dir}
}

func (s *Session) ckptPath() string    { return filepath.Join(s.dir, "state.ckpt") }
func (s *Session) journalPath() string { return filepath.Join(s.dir, "journal") }

// TimelinePath is the on-disk Perfetto timeline ("" when tracing is
// off or the session is ephemeral).
func (s *Session) TimelinePath() string {
	if s.dir == "" || !s.Spec.Trace {
		return ""
	}
	return filepath.Join(s.dir, "perfetto.json")
}

// MetricsPath is the on-disk JSONL metric-snapshot stream.
func (s *Session) MetricsPath() string {
	if s.dir == "" || s.Spec.MetricsEvery <= 0 {
		return ""
	}
	return filepath.Join(s.dir, "metrics.jsonl")
}

// start builds the machine from the spec and — when resume is set —
// restores the session's durable state over it. Mirrors the
// command-line restore contract (docs/CHECKPOINT.md): the workload's
// start-up runs first so the layer stack matches the one that saved.
// Caller holds s.mu.
func (s *Session) start(resume bool) error {
	spec := s.Spec
	switch spec.Workload {
	case "kv":
		p := cst.BuildKVProgram()
		m, err := machine.New(machine.GridForNodes(spec.Nodes), p)
		if err != nil {
			return err
		}
		r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
		for id := range m.Nodes {
			cst.SetupKVNode(r, m, id, spec.Keys)
		}
		s.m = m
		s.kv = newKVDriver(p, spec.Gateways)
		s.savers = []ckpt.Saver{r, s.kv, &s.seq}
	case "jlang":
		c, err := jlang.Compile(spec.Source)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		if !c.Program.HasLabel(spec.Entry) {
			return fmt.Errorf("program has no func %s()", spec.Entry)
		}
		m, err := machine.New(machine.GridForNodes(spec.Nodes), c.Program)
		if err != nil {
			return err
		}
		r := rt.Attach(m, rt.Info(c.Program), rt.DefaultPolicy())
		if spec.StartAll {
			rt.StartAll(m, c.Program, spec.Entry)
		} else {
			rt.StartNode(m, c.Program, 0, spec.Entry)
		}
		s.m = m
		s.savers = []ckpt.Saver{r, &s.seq}
	default:
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if spec.Watchdog > 0 {
		s.m.SetWatchdog(spec.Watchdog)
	}
	if err := s.attachObs(); err != nil {
		s.teardown()
		return err
	}
	// A session runs the zero run configuration. The session
	// directory's obs sinks stay outside it (the timeline and metrics
	// endpoints need the recorder handle to sync mid-run), and so does
	// its checkpoint: a periodic writer would save half a request.
	var err error
	if s.run, err = (sim.Config{}).Attach(s.m); err == nil && s.dir != "" {
		op, durable := "create", s.create
		if resume {
			op, durable = "restore", s.recover
		}
		if err = durable(); err != nil {
			err = &PersistError{Op: op, Err: err}
		}
	}
	if err != nil {
		s.teardown()
		return fmt.Errorf("session %s: %w", s.ID, err)
	}
	s.resident = true
	s.cycle.Store(s.m.Cycle())
	if resume {
		s.restores.Add(1)
	}
	return nil
}

// create writes a new session's durable state. The empty journal goes
// first, unsynced: the checkpoint's directory sync covers both entries.
func (s *Session) create() error {
	f, err := os.Create(s.journalPath())
	if err != nil {
		return err
	}
	s.jr = &journal{f: f}
	return s.checkpoint()
}

// recover restores the checkpoint and replays the journal records it
// does not cover. A hole in the sequence, or a replay that fails or
// ends off its recorded cycle, fails the session: never another state.
func (s *Session) recover() error {
	err := ckpt.RestoreFile(s.ckptPath(), s.m, s.savers...)
	if err != nil {
		return err
	}
	var recs []record
	if s.jr, recs, err = openJournal(s.journalPath()); err != nil {
		return err
	}
	s.ckptAt = s.m.Cycle()
	for _, rec := range recs {
		if rec.seq <= uint64(s.seq) {
			continue // left by a compaction that died before truncating
		}
		if rec.seq != uint64(s.seq)+1 {
			err = fmt.Errorf("follows record %d", s.seq)
		} else if err = s.validate(rec.req); err == nil {
			_, err = s.apply(rec.req)
		}
		if err == nil && s.m.Cycle() != rec.cycle {
			err = fmt.Errorf("replayed to cycle %d, recorded %d", s.m.Cycle(), rec.cycle)
		}
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrJournal, rec.seq, err)
		}
		s.seq++
	}
	return nil
}

// checkpoint writes the machine as it stands and empties the journal
// it now covers. Caller holds s.mu; the session has a directory.
func (s *Session) checkpoint() error {
	if err := ckpt.WriteFile(s.ckptPath(), ckpt.Capture(s.m, s.savers...)); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	s.fsyncs.Add(2) // WriteFile syncs the file and its directory
	s.ckptAt = s.m.Cycle()
	return s.jr.reset()
}

// attachObs opens the trace/metric sinks in the session directory.
// Files are recreated per residency: a restored session's timeline
// restarts at the restore point (the checkpoint holds simulation
// state, not observability history).
func (s *Session) attachObs() error {
	cfg := obs.Config{}
	open := func(path string) (*bufio.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.obsFiles = append(s.obsFiles, f)
		b := bufio.NewWriterSize(f, 1<<16)
		s.obsBufs = append(s.obsBufs, b)
		return b, nil
	}
	if p := s.TimelinePath(); p != "" {
		w, err := open(p)
		if err != nil {
			return err
		}
		cfg.Perfetto = w
		cfg.SampleEvery = 64
	}
	if p := s.MetricsPath(); p != "" {
		w, err := open(p)
		if err != nil {
			return err
		}
		cfg.Metrics = w
		cfg.MetricsEvery = s.Spec.MetricsEvery
	}
	if cfg.Perfetto == nil && cfg.Metrics == nil {
		return nil
	}
	if len(s.m.Nodes) > 0 && s.m.Nodes[0].Prog != nil {
		cfg.HandlerName = obs.HandlerNames(s.m.Nodes[0].Prog.Labels)
	}
	s.rec = obs.Attach(s.m, cfg)
	return nil
}

// teardown releases the machine and every attached layer. Caller holds
// s.mu. The session stays registered; start can rebuild it.
func (s *Session) teardown() {
	s.run.Stop()
	s.rec.Close()
	for _, b := range s.obsBufs {
		b.Flush()
	}
	for _, f := range s.obsFiles {
		f.Close()
	}
	if s.jr != nil {
		s.jr.f.Close()
	}
	s.obsBufs, s.obsFiles = nil, nil
	s.run, s.rec, s.jr = nil, nil, nil
	s.m, s.kv, s.savers = nil, nil, nil
	s.resident = false
}

// ErrNotResident is returned by ops on an evicted session; the manager
// restores before dispatching, so a caller seeing this bypassed it.
var ErrNotResident = errors.New("session not resident")

// do serves one mutating request: validate, simulate, commit. A request
// validate refuses has not touched the machine; one that fails later
// has, so the session is evicted and its next touch restores the last
// committed state. Caller holds s.mu.
func (s *Session) do(req ReplayReq) ([]KVResult, error) {
	if err := s.validate(req); err != nil {
		return nil, err
	}
	res, err := s.apply(req)
	if err == nil {
		err = s.commit(req)
	}
	if err != nil && s.dir != "" {
		s.teardown()
	}
	return res, err
}

// validate refuses a request that must not reach the machine.
func (s *Session) validate(req ReplayReq) error {
	if len(req.Ops) == 0 {
		return nil
	}
	if s.kv == nil {
		return errors.New("not a kv session")
	}
	if max := cst.KVMailRecords * s.kv.gateways; len(req.Ops) > max {
		return fmt.Errorf("batch of %d exceeds mailbox capacity %d", len(req.Ops), max)
	}
	for _, op := range req.Ops {
		if op.Key < 0 || int(op.Key) >= s.Spec.Keys {
			return fmt.Errorf("key %d outside key space [0,%d)", op.Key, s.Spec.Keys)
		}
		if op.Op != OpPut && op.Op != OpGet {
			return fmt.Errorf("unknown op %d (want put or get)", op.Op)
		}
	}
	return nil
}

// apply simulates one validated request — ops when it has any, else a
// step when positive, else a run. Live requests, journal replay and
// Replay all step the machine here and nowhere else.
func (s *Session) apply(req ReplayReq) ([]KVResult, error) {
	switch {
	case len(req.Ops) > 0:
		return s.kv.apply(s.m, s.Spec, req.Ops)
	case req.Step > 0:
		s.m.StepN(min(req.Step, s.Spec.Budget))
		return nil, s.m.FatalErr()
	}
	budget := req.Run
	if budget <= 0 || budget > s.Spec.Budget {
		budget = s.Spec.Budget
	}
	err := s.m.RunQuiescent(budget)
	var lim machine.ErrCycleLimit
	if errors.As(err, &lim) {
		err = nil // budget exhaustion is a normal outcome, not a fault
	}
	return nil, err
}

// commit makes the request just applied durable — one synced journal
// append — before its reply is sent, so a killed daemon resumes at
// exactly the last acknowledged request; and checkpoints when the
// journal reaches compactNodeCycles. Once the append is on disk the
// request is committed: a compaction that then fails is counted and
// left for the next commit to retry, since the previous checkpoint and
// the journal still restore every acknowledged request (ckpt.WriteFile
// replaces the checkpoint by rename, or not at all). Caller holds s.mu.
func (s *Session) commit(req ReplayReq) error {
	s.cycle.Store(s.m.Cycle())
	s.requests.Add(1)
	s.seq++
	if s.dir == "" {
		return nil
	}
	frame := record{seq: uint64(s.seq), cycle: s.m.Cycle(), req: req}.encode()
	if err := s.jr.append(frame); err != nil {
		return &PersistError{Op: "journal append", Err: err}
	}
	s.fsyncs.Add(1)
	s.journalBytes.Add(int64(len(frame)))
	if (s.m.Cycle()-s.ckptAt)*int64(len(s.m.Nodes)) < compactNodeCycles {
		return nil // a restore's replay is still cheap
	}
	if err := s.checkpoint(); err != nil {
		s.compactFails.Add(1)
	}
	return nil
}

// StepCycles advances the machine n cycles.
func (s *Session) StepCycles(n int64) (int64, error) {
	if !s.resident {
		return 0, ErrNotResident
	}
	if n > 0 {
		if _, err := s.do(ReplayReq{Step: n}); err != nil {
			return 0, err
		}
	}
	return s.m.Cycle(), nil
}

// Run steps until quiescence or the budget expires; reports whether the
// machine went quiescent.
func (s *Session) Run(budget int64) (int64, bool, error) {
	if !s.resident {
		return 0, false, ErrNotResident
	}
	if _, err := s.do(ReplayReq{Run: budget}); err != nil {
		return 0, false, err
	}
	return s.m.Cycle(), s.m.Quiescent(), nil
}

// Digest reports the current cycle and StateDigest.
func (s *Session) Digest() (int64, uint64, error) {
	if !s.resident {
		return 0, 0, ErrNotResident
	}
	return s.m.Cycle(), s.m.StateDigest(), nil
}

// Snapshot returns the machine-wide metric snapshot.
func (s *Session) Snapshot() (obs.Snapshot, error) {
	if !s.resident {
		return obs.Snapshot{}, ErrNotResident
	}
	return obs.TakeSnapshot(s.m), nil
}

// Checkpoint forces a checkpoint now — a compaction ahead of its time.
func (s *Session) Checkpoint() error {
	if !s.resident {
		return ErrNotResident
	}
	if s.dir == "" {
		return nil
	}
	if err := s.checkpoint(); err != nil {
		return &PersistError{Op: "checkpoint", Err: err}
	}
	return nil
}

// SyncObs drains the observability sinks to disk so the timeline and
// metrics endpoints can stream a consistent mid-run prefix.
func (s *Session) SyncObs() error {
	if !s.resident {
		return ErrNotResident
	}
	if err := s.rec.Sync(); err != nil {
		return err
	}
	for _, b := range s.obsBufs {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// OpKind is a kv operation: "put" or "get" in JSON, one byte elsewhere.
type OpKind uint8

const (
	OpPut OpKind = iota + 1
	OpGet
)

var opNames = [...]string{OpPut: "put", OpGet: "get"}

func (k OpKind) MarshalText() ([]byte, error) {
	if k != OpPut && k != OpGet {
		return nil, fmt.Errorf("unknown op %d", uint8(k))
	}
	return []byte(opNames[k]), nil
}

func (k *OpKind) UnmarshalText(b []byte) error {
	for kind := OpPut; kind <= OpGet; kind++ {
		if string(b) == opNames[kind] {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("unknown op %q (want put or get)", b)
}

// KVOp is one key-value request.
type KVOp struct {
	Op    OpKind `json:"op"`
	Key   int32  `json:"key"`
	Value int32  `json:"value,omitempty"`
}

// KVResult is the reply to one KVOp.
type KVResult struct {
	Seq     int32 `json:"seq"`
	Gateway int   `json:"gateway"`
	Value   int32 `json:"value"`
	Version int32 `json:"version"`
	// Latency is mesh round-trip time in machine cycles: injection at
	// the gateway to the reply landing in its mailbox.
	Latency int64 `json:"latency_cycles"`
}

// KVApply injects a batch of kv requests and runs the machine until
// every reply lands. The trajectory — and therefore the StateDigest —
// is a pure function of the accumulated op stream: gateways rotate by
// sequence number and injection cycles are determined by queue
// back-pressure alone.
func (s *Session) KVApply(ops []KVOp) ([]KVResult, error) {
	switch {
	case !s.resident:
		return nil, ErrNotResident
	case s.kv == nil:
		return nil, errors.New("not a kv session")
	case len(ops) == 0:
		return nil, nil
	}
	return s.do(ReplayReq{Ops: ops})
}

// kvDriver is the host side of the kv workload: it assigns sequence
// numbers, rotates gateways, and tracks each gateway's consumed
// mailbox cursor. It persists as its own checkpoint section so a
// restored session keeps numbering exactly where it stopped.
type kvDriver struct {
	prog     *asm.Program
	gateways int
	nextSeq  int32
	consumed []int32 // per-gateway replies already harvested
}

func newKVDriver(p *asm.Program, gateways int) *kvDriver {
	return &kvDriver{prog: p, gateways: gateways, consumed: make([]int32, gateways)}
}

func (k *kvDriver) CkptName() string { return "serve.kv" }

func (k *kvDriver) CkptSave(e *wire.Encoder) {
	e.I32(k.nextSeq)
	e.Int(len(k.consumed))
	for _, c := range k.consumed {
		e.I32(c)
	}
}

func (k *kvDriver) CkptRestore(d *wire.Decoder) error {
	seq := d.I32()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(k.consumed) {
		return fmt.Errorf("checkpoint has %d gateways, session has %d", n, len(k.consumed))
	}
	cons := make([]int32, n)
	for i := range cons {
		cons[i] = d.I32()
	}
	if err := d.Err(); err != nil {
		return err
	}
	k.nextSeq = seq
	k.consumed = cons
	return nil
}

func (k *kvDriver) apply(m *machine.Machine, spec Spec, ops []KVOp) ([]KVResult, error) {
	type pending struct {
		gw       int
		injected int64
	}
	inflight := make(map[int32]pending, len(ops))
	expect := make([]int32, k.gateways)
	for _, op := range ops { // validated by Session.validate
		seq := k.nextSeq
		gw := int(seq) % k.gateways
		msg := cst.KVGetMsg(k.prog, op.Key, seq)
		if op.Op == OpPut {
			msg = cst.KVPutMsg(k.prog, op.Key, op.Value, seq)
		}
		if err := injectRetry(m, gw, msg, spec.Budget); err != nil {
			return nil, err
		}
		k.nextSeq++
		inflight[seq] = pending{gw: gw, injected: m.Cycle()}
		expect[gw]++
	}
	// Run until every gateway's mailbox cursor covers this batch.
	err := m.RunWhile(func(m *machine.Machine) bool {
		for gw := 0; gw < k.gateways; gw++ {
			if cst.KVMailCursor(m, gw) < k.consumed[gw]+expect[gw] {
				return true
			}
		}
		return false
	}, spec.Budget)
	if err != nil {
		return nil, fmt.Errorf("kv batch: %w", err)
	}
	results := make([]KVResult, 0, len(ops))
	for gw := 0; gw < k.gateways; gw++ {
		if expect[gw] == 0 {
			continue
		}
		for _, rep := range cst.KVHarvest(m, gw, k.consumed[gw], k.consumed[gw]+expect[gw]) {
			p, ok := inflight[rep.Seq]
			if !ok {
				return nil, fmt.Errorf("gateway %d delivered unknown seq %d", gw, rep.Seq)
			}
			results = append(results, KVResult{
				Seq:     rep.Seq,
				Gateway: p.gw,
				Value:   rep.Value,
				Version: rep.Version,
				Latency: int64(rep.Cycle) - p.injected,
			})
		}
		k.consumed[gw] += expect[gw]
	}
	return results, nil
}

// injectRetry pushes msg into gateway gw's priority-0 queue, stepping
// the machine to drain back-pressure when the queue is full.
func injectRetry(m *machine.Machine, gw int, msg []word.Word, budget int64) error {
	start := m.Cycle()
	for !m.Inject(gw, 0, msg) {
		if m.Cycle()-start > budget {
			return fmt.Errorf("gateway %d queue never drained in %d cycles", gw, budget)
		}
		m.StepN(16)
		if err := m.FatalErr(); err != nil {
			return err
		}
	}
	return nil
}
