package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Manager owns the session registry: creation, LRU eviction when more
// sessions exist than may stay resident, transparent restore on the
// next touch, and crash recovery from the session directory. Eviction
// and shutdown write nothing — a request is on disk before its reply.
//
// Lock order is Manager.mu before Session.mu, never the reverse; a
// session op never calls back into the manager. Acquire releases
// Manager.mu before returning, so sessions step concurrently — the mu
// only serializes registry changes.
type Manager struct {
	dir         string
	maxResident int

	mu       sync.Mutex
	sessions map[string]*Session
	clock    int64 // LRU counter: bumped on every touch
	nextID   int
	broken   []string // session directories recovery skipped
}

// DefaultMaxResident bounds in-memory sessions when NewManager is
// given 0.
const DefaultMaxResident = 8

// NewManager opens (creating if needed) the session directory and
// recovers every session in it: each subdirectory with a spec.json
// re-registers as a non-resident session that restores on first touch,
// so a killed daemon resumes where it stood. A directory whose spec
// does not parse or that lacks a checkpoint or journal is skipped and
// reported in Stats.Broken; the rest are served.
func NewManager(dir string, maxResident int) (*Manager, error) {
	if maxResident <= 0 {
		maxResident = DefaultMaxResident
	}
	g := &Manager{dir: dir, maxResident: maxResident, sessions: make(map[string]*Session)}
	if dir == "" {
		return g, nil // ephemeral: sessions live and die in memory
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		if n, ok := strings.CutPrefix(id, "s"); ok {
			if v, err := strconv.Atoi(n); err == nil && v >= g.nextID {
				g.nextID = v + 1 // even if skipped below: never create over it
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, id, "spec.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue // not a session directory, or a creation that never committed
		}
		var spec Spec
		if err == nil {
			err = json.Unmarshal(data, &spec)
		}
		s := newSession(id, spec, filepath.Join(dir, id))
		for _, path := range []string{s.ckptPath(), s.journalPath()} {
			if err == nil {
				_, err = os.Stat(path)
			}
		}
		if err != nil {
			g.broken = append(g.broken, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		g.sessions[id] = s
	}
	return g, nil
}

// Dir returns the session directory ("" when ephemeral).
func (g *Manager) Dir() string { return g.dir }

// Create registers and builds a new session. The spec is normalized and
// the empty journal and cycle-zero checkpoint are written; spec.json
// goes last, by rename: a crash before it leaves a directory recovery
// does not see, after it a session that survives.
func (g *Manager) Create(spec Spec) (*Session, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	id := fmt.Sprintf("s%06d", g.nextID)
	g.nextID++
	dir := ""
	if g.dir != "" {
		dir = filepath.Join(g.dir, id)
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, &PersistError{Op: "create", Err: err}
		}
	}
	s := newSession(id, spec, dir)
	g.clock++
	s.lastUsed = g.clock
	g.evictOverflowLocked(s)
	s.mu.Lock()
	if err = s.start(false); err == nil && dir != "" {
		if err = writeSpec(dir, spec); err != nil {
			err = &PersistError{Op: "create", Err: err}
			s.teardown()
		}
	}
	s.mu.Unlock()
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	g.sessions[id] = s
	return s, nil
}

func writeSpec(dir string, spec Spec) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "spec.json.tmp")
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "spec.json"))
}

// ErrNoSession reports an unknown session ID.
var ErrNoSession = errors.New("no such session")

// Acquire returns session id locked and resident, restoring it from
// its checkpoint and journal if it was evicted. The caller must invoke
// the release function when done. Other sessions keep serving
// concurrently.
func (g *Manager) Acquire(id string) (*Session, func(), error) {
	g.mu.Lock()
	s, ok := g.sessions[id]
	if !ok {
		g.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	g.clock++
	s.lastUsed = g.clock
	g.mu.Unlock()

	s.mu.Lock()
	if !s.resident {
		// Make room, then restore. Taking g.mu while holding s.mu
		// cannot deadlock: the eviction sweep only ever TryLocks
		// session mutexes, so no g.mu holder blocks on s.mu.
		g.mu.Lock()
		g.evictOverflowLocked(s)
		g.mu.Unlock()
		if err := s.start(true); err != nil {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("restore %s: %w", id, err)
		}
	}
	return s, s.mu.Unlock, nil
}

// evictOverflowLocked tears down least-recently-used resident sessions
// until admitting `next` keeps the resident count at maxResident — no
// write: every acknowledged request is on disk. Sessions busy serving a request are skipped (TryLock),
// so the cap is a target, not a hard ceiling. Caller holds g.mu.
func (g *Manager) evictOverflowLocked(next *Session) {
	skip := make(map[*Session]bool)
	for {
		resident := 0
		var victim *Session
		for _, s := range g.sessions {
			if s == next || !s.residentHint() {
				continue
			}
			resident++
			if skip[s] {
				continue
			}
			if victim == nil || s.lastUsed < victim.lastUsed {
				victim = s
			}
		}
		if resident < g.maxResident || victim == nil {
			return
		}
		if !victim.mu.TryLock() {
			// Mid-request: leave it alone rather than stall the
			// registry; try the next-least-recent candidate.
			skip[victim] = true
			continue
		}
		victim.teardown()
		victim.mu.Unlock()
	}
}

// residentHint reads residency without the session lock — good enough
// for victim selection (the TryLock re-checks under the lock).
func (s *Session) residentHint() bool {
	if !s.mu.TryLock() {
		return true // busy serving ⇒ resident
	}
	r := s.resident
	s.mu.Unlock()
	return r
}

// SessionInfo is one row of List.
type SessionInfo struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	Resident bool   `json:"resident"`
	Cycle    int64  `json:"cycle"`
	Requests int64  `json:"requests"`
	Restores int64  `json:"restores"`
}

// List reports every registered session, most recently used first.
func (g *Manager) List() []SessionInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	type row struct {
		info SessionInfo
		used int64
	}
	rows := make([]row, 0, len(g.sessions))
	for _, s := range g.sessions { //jm:maporder rows are sorted below
		rows = append(rows, row{
			info: SessionInfo{
				ID:       s.ID,
				Workload: s.Spec.Workload,
				Nodes:    s.Spec.Nodes,
				Resident: s.residentHint(),
				Cycle:    s.cycle.Load(),
				Requests: s.requests.Load(),
				Restores: s.restores.Load(),
			},
			used: s.lastUsed,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].used != rows[j].used {
			return rows[i].used > rows[j].used
		}
		return rows[i].info.ID < rows[j].info.ID
	})
	out := make([]SessionInfo, len(rows))
	for i, r := range rows {
		out[i] = r.info
	}
	return out
}

// Delete tears the session down and removes its directory.
func (g *Manager) Delete(id string) error {
	g.mu.Lock()
	s, ok := g.sessions[id]
	if ok {
		delete(g.sessions, id)
	}
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	s.mu.Lock()
	s.teardown()
	s.mu.Unlock()
	if s.dir != "" {
		return os.RemoveAll(s.dir)
	}
	return nil
}

// Shutdown evicts every resident session, flushing its observability
// sinks. The directory already is what the next daemon recovers:
// nothing else is written, and the error is always nil.
func (g *Manager) Shutdown() error {
	g.mu.Lock()
	all := make([]*Session, 0, len(g.sessions))
	for _, s := range g.sessions { //jm:maporder teardown order does not matter
		all = append(all, s)
	}
	g.mu.Unlock()
	for _, s := range all {
		s.mu.Lock()
		s.teardown()
		s.mu.Unlock()
	}
	return nil
}

// Stats summarizes the registry for the statz endpoint.
type Stats struct {
	Sessions    int   `json:"sessions"`
	Resident    int   `json:"resident"`
	MaxResident int   `json:"max_resident"`
	Requests    int64 `json:"requests"`
	Restores    int64 `json:"restores"`
	// Broken names the session directories recovery skipped, and why.
	Broken []string `json:"broken,omitempty"`
	// Durable I/O by this manager: fsyncs (one per journal append, two
	// per checkpoint), checkpoints written, journal bytes appended, and
	// compactions that failed after their request was journalled (the
	// request still succeeded; the next commit retries).
	Fsyncs          int64 `json:"fsyncs"`
	Checkpoints     int64 `json:"checkpoints"`
	JournalBytes    int64 `json:"journal_bytes"`
	CompactFailures int64 `json:"compact_failures"`
}

// Stat reports registry-wide counters.
func (g *Manager) Stat() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{Sessions: len(g.sessions), MaxResident: g.maxResident, Broken: g.broken}
	for _, s := range g.sessions { //jm:maporder commutative sums
		if s.residentHint() {
			st.Resident++
		}
		st.Requests += s.requests.Load()
		st.Restores += s.restores.Load()
		st.Fsyncs += s.fsyncs.Load()
		st.Checkpoints += s.checkpoints.Load()
		st.JournalBytes += s.journalBytes.Load()
		st.CompactFailures += s.compactFails.Load()
	}
	return st
}
