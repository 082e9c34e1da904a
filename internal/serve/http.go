package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
)

// NewHandler builds the HTTP/JSON API over a Manager. All endpoints
// are rooted at /v1; see docs/SERVE.md for the reference.
func NewHandler(g *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Stat())
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if !readBody(w, r, &spec) {
			return
		}
		s, err := g.Create(spec)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"id": s.ID, "spec": s.Spec})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": g.List()})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		withSession(g, w, r, func(s *Session) (any, error) {
			cycle, digest, err := s.Digest()
			if err != nil {
				return nil, err
			}
			return map[string]any{
				"id": s.ID, "spec": s.Spec, "cycle": cycle,
				"digest":    fmt.Sprintf("%016x", digest),
				"quiescent": s.m.Quiescent(),
			}, nil
		})
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := g.Delete(r.PathValue("id")); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Cycles int64 `json:"cycles"`
		}
		if !readBody(w, r, &req) {
			return
		}
		withSession(g, w, r, func(s *Session) (any, error) {
			cycle, err := s.StepCycles(req.Cycles)
			if err != nil {
				return nil, err
			}
			return map[string]any{"cycle": cycle}, nil
		})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/run", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Budget int64 `json:"budget"`
		}
		if !readBody(w, r, &req) {
			return
		}
		withSession(g, w, r, func(s *Session) (any, error) {
			cycle, quiescent, err := s.Run(req.Budget)
			if err != nil {
				return nil, err
			}
			return map[string]any{"cycle": cycle, "quiescent": quiescent}, nil
		})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/kv", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Ops []KVOp `json:"ops"`
		}
		if !readBody(w, r, &req) {
			return
		}
		withSession(g, w, r, func(s *Session) (any, error) {
			results, err := s.KVApply(req.Ops)
			if err != nil {
				return nil, err
			}
			return map[string]any{"results": results, "cycle": s.m.Cycle()}, nil
		})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		withSession(g, w, r, func(s *Session) (any, error) {
			if err := s.Checkpoint(); err != nil {
				return nil, err
			}
			return map[string]string{"status": "checkpointed"}, nil
		})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/digest", func(w http.ResponseWriter, r *http.Request) {
		withSession(g, w, r, func(s *Session) (any, error) {
			cycle, digest, err := s.Digest()
			if err != nil {
				return nil, err
			}
			return map[string]any{"cycle": cycle, "digest": fmt.Sprintf("%016x", digest)}, nil
		})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		withSession(g, w, r, func(s *Session) (any, error) {
			return s.Snapshot()
		})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		streamObsFile(g, w, r, (*Session).TimelinePath, "application/json")
	})
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		streamObsFile(g, w, r, (*Session).MetricsPath, "application/jsonl")
	})
	return mux
}

// maxBody bounds a request body (413 beyond it): a request is written
// to the journal as received, so its size is a disk cost too.
const maxBody = 1 << 20

// readBody decodes the JSON body into v, or answers the error — 400 for
// a malformed body, an unknown kv op included — and returns false.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	if err != nil {
		writeErr(w, statusOf(err), err)
	}
	return err == nil
}

// withSession acquires the session (restoring it if evicted), runs fn
// under its lock, and writes the JSON result.
func withSession(g *Manager, w http.ResponseWriter, r *http.Request, fn func(*Session) (any, error)) {
	s, release, err := g.Acquire(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	v, err := fn(s)
	release()
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// streamObsFile syncs the session's observability sinks and serves the
// on-disk stream. The sync happens under the session lock; the file
// read happens after release, so a long download never blocks the
// simulation (the served bytes are a consistent prefix).
func streamObsFile(g *Manager, w http.ResponseWriter, r *http.Request, path func(*Session) string, contentType string) {
	s, release, err := g.Acquire(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	p := path(s)
	if p == "" {
		release()
		writeErr(w, http.StatusNotFound, errors.New("sink not enabled for this session"))
		return
	}
	err = s.SyncObs()
	release()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	data, err := os.ReadFile(p)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, ErrNotResident):
		return http.StatusConflict
	case errors.As(err, new(*PersistError)):
		return http.StatusInternalServerError // ErrJournal included: it fails a restore
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
