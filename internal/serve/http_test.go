package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// call issues one API request and decodes the JSON response into out.
func call(t *testing.T, srv *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPI(t *testing.T) {
	g, err := NewManager(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	var health map[string]string
	if code := call(t, srv, "GET", "/v1/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: code=%d body=%v", code, health)
	}

	// Create a kv session with tracing on.
	var created struct {
		ID   string `json:"id"`
		Spec Spec   `json:"spec"`
	}
	spec := Spec{Workload: "kv", Nodes: 4, Keys: 16, Gateways: 2, Trace: true, MetricsEvery: 64}
	if code := call(t, srv, "POST", "/v1/sessions", spec, &created); code != 201 {
		t.Fatalf("create: code=%d", code)
	}
	if created.Spec.Budget == 0 {
		t.Error("create did not return the normalized spec")
	}
	id := created.ID

	// Bad spec is rejected.
	if code := call(t, srv, "POST", "/v1/sessions", Spec{Workload: "kv", Nodes: 5}, nil); code != 400 {
		t.Errorf("bad spec: code=%d, want 400", code)
	}

	// Step, then kv ops, then digest.
	var stepped struct {
		Cycle int64 `json:"cycle"`
	}
	if code := call(t, srv, "POST", "/v1/sessions/"+id+"/step", map[string]int64{"cycles": 100}, &stepped); code != 200 || stepped.Cycle < 100 {
		t.Fatalf("step: code=%d cycle=%d", code, stepped.Cycle)
	}
	var kvResp struct {
		Results []KVResult `json:"results"`
	}
	ops := map[string]any{"ops": []KVOp{{Op: OpPut, Key: 2, Value: 7}}}
	if code := call(t, srv, "POST", "/v1/sessions/"+id+"/kv", ops, &kvResp); code != 200 || len(kvResp.Results) != 1 {
		t.Fatalf("kv: code=%d results=%v", code, kvResp.Results)
	}
	if kvResp.Results[0].Version != 1 {
		t.Errorf("put version = %d, want 1", kvResp.Results[0].Version)
	}
	var dig struct {
		Cycle  int64  `json:"cycle"`
		Digest string `json:"digest"`
	}
	if code := call(t, srv, "GET", "/v1/sessions/"+id+"/digest", nil, &dig); code != 200 || len(dig.Digest) != 16 {
		t.Fatalf("digest: code=%d %+v", code, dig)
	}

	// Timeline and metrics stream non-empty prefixes.
	for _, ep := range []string{"timeline", "metrics"} {
		resp, err := srv.Client().Get(srv.URL + "/v1/sessions/" + id + "/" + ep)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || buf.Len() == 0 {
			t.Errorf("%s: code=%d len=%d", ep, resp.StatusCode, buf.Len())
		}
		if ep == "timeline" && !strings.Contains(buf.String(), "traceEvents") {
			t.Errorf("timeline is not a Perfetto stream: %.80s", buf.String())
		}
	}

	// Snapshot and statz respond.
	if code := call(t, srv, "GET", "/v1/sessions/"+id+"/snapshot", nil, &map[string]any{}); code != 200 {
		t.Errorf("snapshot: code=%d", code)
	}
	var st Stats
	if code := call(t, srv, "GET", "/v1/statz", nil, &st); code != 200 || st.Sessions != 1 {
		t.Errorf("statz: code=%d %+v", code, st)
	}

	// List shows the session; delete removes it; 404 afterwards.
	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if code := call(t, srv, "GET", "/v1/sessions", nil, &list); code != 200 || len(list.Sessions) != 1 {
		t.Fatalf("list: code=%d %+v", code, list)
	}
	if code := call(t, srv, "DELETE", "/v1/sessions/"+id, nil, nil); code != 200 {
		t.Fatalf("delete: code=%d", code)
	}
	if code := call(t, srv, "GET", "/v1/sessions/"+id, nil, nil); code != 404 {
		t.Errorf("get after delete: code=%d, want 404", code)
	}
	if code := call(t, srv, "GET", "/v1/sessions/nope/digest", nil, nil); code != 404 {
		t.Errorf("unknown id: code=%d, want 404", code)
	}
}

// TestHTTPSessionDeterminism drives two sessions through the same op
// stream over real HTTP from concurrent clients and cross-checks the
// digests against the in-process replay.
func TestHTTPSessionDeterminism(t *testing.T) {
	g, err := NewManager(t.TempDir(), 1) // churn: one resident slot
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	spec := Spec{Workload: "kv", Nodes: 4, Keys: 16, Gateways: 2}
	ids := make([]string, 2)
	for i := range ids {
		var created struct {
			ID string `json:"id"`
		}
		if code := call(t, srv, "POST", "/v1/sessions", spec, &created); code != 201 {
			t.Fatalf("create: code=%d", code)
		}
		ids[i] = created.ID
	}
	ops := GenOps(99, 16, 16)
	var reqs []ReplayReq
	for i := 0; i < len(ops); i += 4 {
		reqs = append(reqs, ReplayReq{Ops: ops[i : i+4]})
	}
	done := make(chan error, len(ids))
	for _, id := range ids {
		go func(id string) {
			for _, req := range reqs {
				data, _ := json.Marshal(map[string]any{"ops": req.Ops})
				resp, err := srv.Client().Post(
					srv.URL+"/v1/sessions/"+id+"/kv", "application/json", bytes.NewReader(data))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					done <- fmt.Errorf("kv on %s: status %d", id, resp.StatusCode)
					return
				}
			}
			done <- nil
		}(id)
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := Replay(spec, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var dig struct {
			Digest string `json:"digest"`
		}
		if code := call(t, srv, "GET", "/v1/sessions/"+id+"/digest", nil, &dig); code != 200 {
			t.Fatalf("digest: code=%d", code)
		}
		if dig.Digest != fmt.Sprintf("%016x", want) {
			t.Errorf("session %s digest %s, want %016x", id, dig.Digest, want)
		}
	}
}

// TestHTTPBodyChecks: what a request body can get wrong is answered
// before the session is touched — an unknown op is a decode error, a
// body over maxBody is 413 — and a retired spec field is ignored.
func TestHTTPBodyChecks(t *testing.T) {
	g, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/sessions", `{"workload":"kv","nodes":4,"keys":16,"gateways":2,"ckpt_every":4096}`); code != 201 {
		t.Fatalf("create with a ckpt_every field: code=%d, want 201", code)
	}
	id := g.List()[0].ID
	kv := "/v1/sessions/" + id + "/kv"
	if code := post(kv, `{"ops":[{"op":"put","key":1,"value":2},{"op":"del","key":1}]}`); code != 400 {
		t.Errorf("unknown op: code=%d, want 400", code)
	}
	big := `{"ops":[` + strings.Repeat(`{"op":"get","key":1},`, maxBody/20) + `{"op":"get","key":1}]}`
	if code := post(kv, big); code != 413 {
		t.Errorf("%d-byte body: code=%d, want 413", len(big), code)
	}
	if code := post(kv, `{"ops":[{"op":"put","key":1,"value":2}]}`); code != 200 {
		t.Errorf("put: code=%d, want 200", code)
	}
	var st Stats
	if code := call(t, srv, "GET", "/v1/statz", nil, &st); code != 200 {
		t.Fatalf("statz: code=%d", code)
	}
	// One create (a checkpoint: two fsyncs) and one committed request.
	if st.Requests != 1 || st.Fsyncs != 3 || st.Checkpoints != 1 || st.JournalBytes == 0 {
		t.Errorf("statz after one create and one put: %+v", st)
	}
}

// TestPersistenceFailures: a compaction that fails after its request
// was journalled still answers 200 — the request is on disk — and is
// counted and retried at the next commit; a failed journal append is a
// server error that evicts the session. Either way the session, live and
// recovered, stays where its acknowledged requests put it.
func TestPersistenceFailures(t *testing.T) {
	dir := t.TempDir()
	g, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	spec := kvSpec(8, 32, 4)
	s, err := g.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	var acked []ReplayReq
	reqs := batches(GenOps(5, 32, 4*60), 4)
	kv := func() int {
		t.Helper()
		req := reqs[0]
		reqs = reqs[1:]
		code := call(t, srv, "POST", "/v1/sessions/"+s.ID+"/kv", map[string]any{"ops": req.Ops}, nil)
		if code == 200 {
			acked = append(acked, req)
		}
		return code
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

	// A non-empty directory where the checkpoint goes: the compaction's
	// rename fails, the old checkpoint stays aside, the journal grows.
	ckptPath := filepath.Join(dir, s.ID, "state.ckpt")
	if err := os.Rename(ckptPath, ckptPath+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(ckptPath, "occupied"), 0o777); err != nil {
		t.Fatal(err)
	}
	for g.Stat().CompactFailures < 2 {
		if len(reqs) == 0 {
			t.Fatalf("no compaction failed in %d requests", len(acked))
		}
		if code := kv(); code != 200 {
			t.Fatalf("request %d with the checkpoint blocked: code=%d, want 200", len(acked)+1, code)
		}
	}
	if !s.residentHint() {
		t.Error("a failed compaction evicted the session")
	}
	same("after failed compactions", g)

	// Unblocked, the next commit compacts.
	if err := os.RemoveAll(ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(ckptPath+".aside", ckptPath); err != nil {
		t.Fatal(err)
	}
	before := g.Stat()
	if code := kv(); code != 200 {
		t.Fatalf("request after unblocking: code=%d", code)
	}
	if st := g.Stat(); st.Checkpoints != before.Checkpoints+1 || st.CompactFailures != before.CompactFailures {
		t.Errorf("the commit after unblocking did not compact: %+v, before it %+v", st, before)
	}
	var st Stats
	if code := call(t, srv, "GET", "/v1/statz", nil, &st); code != 200 || st.CompactFailures != 2 {
		t.Errorf("statz: code=%d compact_failures=%d, want 2", code, st.CompactFailures)
	}
	same("after the retried compaction", g)
	g2, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	same("recovered by a second manager", g2)

	// A journal that cannot be appended to: 500, and the session is
	// evicted so its next touch restores the acknowledged state.
	s.mu.Lock()
	s.jr.f.Close()
	s.mu.Unlock()
	if code := kv(); code != 500 {
		t.Errorf("request with the journal closed: code=%d, want 500", code)
	}
	if s.residentHint() {
		t.Error("a failed append left the session resident")
	}
	same("after a failed append", g)
}
