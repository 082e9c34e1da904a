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
	r        *rt.Runtime
	run      *sim.Run // engine shards + checkpoint layers
	rec      *obs.Recorder
	obsBufs  []*bufio.Writer
	obsFiles []*os.File
	kv       *kvDriver

	dir      string       // session directory ("" = ephemeral: no ckpt, no obs)
	lastUsed int64        // manager's LRU clock; guarded by the manager's mu
	cycle    atomic.Int64 // last observed cycle, for lock-free listings
	requests atomic.Int64 // mutating requests served
	restores atomic.Int64 // evict/restore round-trips survived
}

func newSession(id string, spec Spec, dir string) *Session {
	return &Session{ID: id, Spec: spec, dir: dir}
}

func (s *Session) ckptPath() string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, "state.ckpt")
}

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
// restores the session checkpoint over it. Mirrors the command-line
// restore contract (docs/CHECKPOINT.md): the workload's start-up runs
// first so the layer stack matches the one that saved, then
// run.PreRun rewinds the state. Caller holds s.mu.
func (s *Session) start(resume bool) error {
	spec := s.Spec
	var savers []ckpt.Saver
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
		s.m, s.r = m, r
		s.kv = newKVDriver(p, spec.Gateways)
		savers = []ckpt.Saver{r, s.kv}
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
		s.m, s.r = m, r
		savers = []ckpt.Saver{r}
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
	// The one place a spec becomes a run configuration. The session
	// directory's obs sinks stay outside it: the timeline and metrics
	// endpoints need the recorder handle to sync mid-run.
	cfg := sim.Config{
		Shards:    spec.Shards,
		Reference: spec.Reference,
		Ckpt:      ckpt.Flags{Path: s.ckptPath(), Every: spec.CkptEvery, Resume: resume},
	}
	var err error
	if s.run, err = cfg.Attach(s.m, savers...); err == nil {
		err = s.run.PreRun()
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
	s.obsBufs, s.obsFiles = nil, nil
	s.run, s.rec = nil, nil
	s.m, s.r, s.kv = nil, nil, nil
	s.resident = false
}

// suspend checkpoints the session and evicts it from memory. Caller
// holds s.mu.
func (s *Session) suspend() error {
	if !s.resident {
		return nil
	}
	err := s.run.Layers.WriteNow()
	s.teardown()
	return err
}

// commit checkpoints after a mutating request so a killed daemon
// resumes at exactly the last completed request. Caller holds s.mu.
func (s *Session) commit() error {
	s.cycle.Store(s.m.Cycle())
	s.requests.Add(1)
	return s.run.Layers.WriteNow()
}

// ErrNotResident is returned by ops on an evicted session; the manager
// restores before dispatching, so a caller seeing this bypassed it.
var ErrNotResident = errors.New("session not resident")

// StepCycles advances the machine n cycles.
func (s *Session) StepCycles(n int64) (int64, error) {
	if !s.resident {
		return 0, ErrNotResident
	}
	if n <= 0 {
		return s.m.Cycle(), nil
	}
	if max := s.Spec.Budget; n > max {
		n = max
	}
	s.m.StepN(n)
	if err := s.m.FatalErr(); err != nil {
		return s.m.Cycle(), err
	}
	return s.m.Cycle(), s.commit()
}

// Run steps until quiescence or the budget expires; reports whether the
// machine went quiescent.
func (s *Session) Run(budget int64) (int64, bool, error) {
	if !s.resident {
		return 0, false, ErrNotResident
	}
	if budget <= 0 || budget > s.Spec.Budget {
		budget = s.Spec.Budget
	}
	err := s.m.RunQuiescent(budget)
	var lim machine.ErrCycleLimit
	if errors.As(err, &lim) {
		err = nil // budget exhaustion is a normal outcome, not a fault
	}
	if err != nil {
		return s.m.Cycle(), false, err
	}
	return s.m.Cycle(), s.m.Quiescent(), s.commit()
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

// Checkpoint forces an immediate checkpoint write.
func (s *Session) Checkpoint() error {
	if !s.resident {
		return ErrNotResident
	}
	return s.run.Layers.WriteNow()
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

// KVOp is one key-value request.
type KVOp struct {
	Op    string `json:"op"` // "put" or "get"
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
	if !s.resident {
		return nil, ErrNotResident
	}
	if s.kv == nil {
		return nil, errors.New("not a kv session")
	}
	if len(ops) == 0 {
		return nil, nil
	}
	if max := cst.KVMailRecords * s.kv.gateways; len(ops) > max {
		return nil, fmt.Errorf("batch of %d exceeds mailbox capacity %d", len(ops), max)
	}
	res, err := s.kv.apply(s.m, s.Spec, ops)
	if err != nil {
		return res, err
	}
	return res, s.commit()
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
	for _, op := range ops {
		if op.Key < 0 || int(op.Key) >= spec.Keys {
			return nil, fmt.Errorf("key %d outside key space [0,%d)", op.Key, spec.Keys)
		}
		seq := k.nextSeq
		gw := int(seq) % k.gateways
		var msg []word.Word
		switch op.Op {
		case "put":
			msg = cst.KVPutMsg(k.prog, op.Key, op.Value, seq)
		case "get":
			msg = cst.KVGetMsg(k.prog, op.Key, seq)
		default:
			return nil, fmt.Errorf("unknown op %q (want put or get)", op.Op)
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
