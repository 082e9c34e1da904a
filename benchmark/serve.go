package main

// The serve workloads: an in-process jm-serve (serve.NewManager behind
// serve.NewHandler on a loopback listener) driven by closed-loop
// clients over real HTTP connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"jmachine/internal/ckpt"
	"jmachine/internal/cst"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/serve"
)

// serveWorkload sizes one serve workload.
type serveWorkload struct {
	sessions    int
	maxResident int // < sessions makes every touch land on an evicted session
	spec        serve.Spec
	batch       int // ops per request
	// streamLen is the length of each session's pregenerated request
	// stream. A run that exhausts it stops early; at today's ~1.4 ms per
	// request ten seconds use about a tenth of it.
	streamLen int
	pinAfter  int // requests per session after which golden.json pins its replies
}

func serveWorkloads(quick bool) map[string]serveWorkload {
	w := serveWorkload{
		sessions: 8, maxResident: 8,
		spec:  serve.Spec{Workload: "kv", Nodes: 8, Keys: 32, Gateways: 4},
		batch: 4, streamLen: 16384, pinAfter: 25,
	}
	if quick {
		w.streamLen, w.pinAfter = 512, 5
	}
	churn := w
	churn.maxResident = 4
	return map[string]serveWorkload{"serve-resident": w, "serve-churn": churn}
}

// clientCount is the number of closed-loop clients, one connection
// each: two, unless the host has a single CPU.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// kvSession is the client's side of one hosted session.
type kvSession struct {
	id     string
	stream []serve.ReplayReq
	done   int   // requests answered
	cycle  int64 // the session's clock as last reported
	kvCyc  []float64
	// replies folds every reply's (seq, value, version); pinned* hold
	// the fold and the clock after pinAfter requests.
	replies      uint64
	pinnedCycle  int64
	pinnedFold   uint64
	failed       int
	lastFailText string
}

// serveRig is one set-up service: state directory, manager, sessions
// and their generated streams.
type serveRig struct {
	w        serveWorkload
	dir      string
	g        *serve.Manager
	sessions []*kvSession
}

// setUpServe builds the manager and its sessions (each Create writes a
// cycle-zero checkpoint) and generates the request streams.
func setUpServe(cfg config, w serveWorkload) (*serveRig, error) {
	dir, err := os.MkdirTemp(cfg.outDir, cfg.workload+"-state-")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{w: w, dir: dir}
	if rig.g, err = serve.NewManager(dir, w.maxResident); err != nil {
		return rig, err
	}
	for i := 0; i < w.sessions; i++ {
		s, err := rig.g.Create(w.spec)
		if err != nil {
			return rig, err
		}
		ops := serve.GenOps(cfg.seed+int64(i), w.spec.Keys, w.streamLen*w.batch)
		ks := &kvSession{id: s.ID, stream: make([]serve.ReplayReq, w.streamLen)}
		for r := range ks.stream {
			ks.stream[r].Ops = ops[r*w.batch : (r+1)*w.batch]
		}
		rig.sessions = append(rig.sessions, ks)
	}
	return rig, nil
}

func (rig *serveRig) remove() {
	if rig != nil && rig.dir != "" {
		os.RemoveAll(rig.dir)
	}
}

// reqRecord is one request as the client saw it.
type reqRecord struct {
	no     int // session index × stream length + position in the stream
	start  time.Time
	dur    time.Duration
	cycles int64 // simulated cycles the request advanced its session by
}

func (r reqRecord) end() time.Time { return r.start.Add(r.dur) }

// timing is the middleware of the traced phase: it times the wrapped
// handler and files the span under the request number the client sent.
type timing struct {
	next http.Handler

	mu    sync.Mutex
	spans map[int]reqRecord // by request number
}

const reqHeader = "X-Benchmark-Request"

func (t *timing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	dur := time.Since(start)
	if n, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil {
		t.mu.Lock()
		t.spans[n] = reqRecord{no: n, start: start, dur: dur}
		t.mu.Unlock()
	}
}

func (t *timing) span(no int) reqRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[no]
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns once Shutdown closes the listener
		close(served)
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Shutdown(context.Background())
		<-served
	}, nil
}

type kvResponse struct {
	Results []serve.KVResult `json:"results"`
	Cycle   int64            `json:"cycle"`
}

// request sends the session's next batch and books the reply.
func (ks *kvSession) request(hc *http.Client, base string, reqNo, pinAfter int) reqRecord {
	ops := ks.stream[ks.done].Ops
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err) // a KVOp always marshals
	}
	req, err := http.NewRequest("POST", base+"/v1/sessions/"+ks.id+"/kv", bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is ours
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(reqNo))

	var out kvResponse
	rec := reqRecord{no: reqNo, start: time.Now()}
	resp, err := hc.Do(req)
	if err == nil {
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(resp.Body)
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		} else {
			err = json.NewDecoder(resp.Body).Decode(&out)
		}
		io.Copy(io.Discard, resp.Body) // to the end, so the connection is reused
		resp.Body.Close()
	}
	rec.dur = time.Since(rec.start)
	if err == nil && len(out.Results) != len(ops) {
		err = fmt.Errorf("%d replies to %d ops", len(out.Results), len(ops))
	}
	ks.done++
	if err != nil {
		ks.failed++
		ks.lastFailText = err.Error()
		return rec
	}
	rec.cycles = out.Cycle - ks.cycle
	ks.cycle = out.Cycle
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].Seq < out.Results[j].Seq })
	h := fnv.New64a()
	fmt.Fprint(h, ks.replies)
	for _, r := range out.Results {
		fmt.Fprint(h, r.Seq, r.Value, r.Version)
		ks.kvCyc = append(ks.kvCyc, float64(r.Latency))
	}
	ks.replies = h.Sum64()
	if ks.done == pinAfter {
		ks.pinnedCycle, ks.pinnedFold = ks.cycle, ks.replies
	}
	return rec
}

// drive runs the closed loop for the given time: every client sends its
// next request only when the previous one has been answered, taking
// its sessions in turn. It returns the requests in completion order.
func (rig *serveRig) drive(base string, seconds float64, minPerSession int) []reqRecord {
	clients := clientCount()
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]reqRecord, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}}
			defer hc.CloseIdleConnections()
			for busy := true; busy; {
				busy = false
				for i := c; i < len(rig.sessions); i += clients {
					ks := rig.sessions[i]
					if ks.done == len(ks.stream) || (ks.done >= minPerSession && !time.Now().Before(deadline)) {
						continue
					}
					busy = true
					perClient[c] = append(perClient[c], ks.request(hc, base, i*len(ks.stream)+ks.done, rig.w.pinAfter))
				}
			}
		}(c)
	}
	wg.Wait()
	var all []reqRecord
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end().Before(all[j].end()) })
	return all
}

// windowRequests is the number of requests per window: about a fifth
// of a second of serve-resident's traffic.
const windowRequests = 200

// firstSend is when the earliest of the requests was sent.
func firstSend(all []reqRecord) time.Time {
	first := all[0].start
	for _, r := range all {
		if r.start.Before(first) {
			first = r.start
		}
	}
	return first
}

// requestWindows cuts one phase's requests, given in completion order,
// into windows of windowRequests; what is left over at the end is
// dropped, unless that is everything. A window's time runs from the
// previous window's last reply to its own.
func requestWindows(all []reqRecord) []window {
	per := windowRequests
	if len(all) < per {
		per = len(all)
	}
	var ws []window
	prevEnd := firstSend(all)
	for i := 0; i+per <= len(all); i += per {
		end := all[i+per-1].end()
		w := window{elapsed: end.Sub(prevEnd).Seconds()}
		for _, r := range all[i : i+per] {
			w.lat = append(w.lat, ms(r.dur.Seconds()))
			w.cycles += r.cycles
		}
		ws = append(ws, w)
		prevEnd = end
	}
	return ws
}

// phaseRate is one phase's requests per second, first send to last
// reply.
func phaseRate(all []reqRecord) float64 {
	return float64(len(all)) / all[len(all)-1].end().Sub(firstSend(all)).Seconds()
}

// verify requires every session to be in the state a standalone replay
// of its request stream ends in. It returns the replays' wall time: the
// simulator alone on this traffic, without HTTP or checkpoints.
func (rig *serveRig) verify(res *result, g *serve.Manager, who string) (float64, error) {
	var replayS float64
	for i, ks := range rig.sessions {
		s, release, err := g.Acquire(ks.id)
		if err != nil {
			return 0, err
		}
		cycle, digest, err := s.Digest()
		release()
		if err != nil {
			return 0, err
		}
		t := time.Now()
		wantCycle, wantDigest, err := serve.Replay(rig.w.spec, ks.stream[:ks.done])
		replayS += time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		res.check(cycle == wantCycle && digest == wantDigest,
			"%s: session %d is at cycle %d digest %016x, a replay of its %d requests at cycle %d digest %016x",
			who, i, cycle, digest, ks.done, wantCycle, wantDigest)
	}
	return replayS, nil
}

// bookRequests counts every request as one check, failed or not, and
// pins the replies golden.json holds.
func (rig *serveRig) bookRequests(res *result) (requests int, cycles int64) {
	for i, ks := range rig.sessions {
		res.attempted += ks.done
		res.failed += ks.failed
		if ks.failed > 0 {
			fmt.Fprintf(os.Stderr, "CHECK FAILED: session %d: %d of %d requests failed, last: %s\n", i, ks.failed, ks.done, ks.lastFailText)
		}
		requests += ks.done
		cycles += ks.cycle
		res.exact[fmt.Sprintf("s%d_cycle", i)] = ks.pinnedCycle
		res.exact[fmt.Sprintf("s%d_replies", i)] = int64(ks.pinnedFold)
	}
	return requests, cycles
}

// runServe is the untraced run: the end-to-end metrics.
func runServe(cfg config, w serveWorkload, res *result) error {
	var rig *serveRig
	defer func() { rig.remove() }()
	setUpS, err := cfg.timeSetUps(func() (err error) {
		rig.remove()
		rig, err = setUpServe(cfg, w)
		return err
	})
	if err != nil {
		return err
	}
	base, stop, err := listen(serve.NewHandler(rig.g))
	if err != nil {
		return err
	}
	defer stop()

	all := rig.drive(base, cfg.seconds, w.pinAfter)
	rig.bookRequests(res)
	ws := requestWindows(all)
	res.setTimings(ws)
	res.set("setup_s", setUpS)
	all, ws = nil, nil
	res.set("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(rig)

	_, err = rig.verify(res, rig.g, "served")
	return err
}

// traceServe is the traced run: the per-layer metrics. The clients run
// an untraced phase and then a traced one, whose requests pass through
// the timing middleware; after that the layers are called directly.
func traceServe(cfg config, w serveWorkload, res *result) error {
	rig, err := setUpServe(cfg, w)
	defer rig.remove()
	if err != nil {
		return err
	}
	handler := serve.NewHandler(rig.g)
	mw := &timing{next: handler, spans: map[int]reqRecord{}}
	plainBase, stopPlain, err := listen(handler)
	if err != nil {
		return err
	}
	defer stopPlain()
	tracedBase, stopTraced, err := listen(mw)
	if err != nil {
		return err
	}
	defer stopTraced()

	// Untraced and traced phases alternate, so that both see the same
	// mix of early and late requests.
	const rounds = 4
	var traced []reqRecord
	var plain []window
	var plainRates, tracedRates sample
	var restores int64
	for round := 1; round <= rounds; round++ {
		phase := rig.drive(plainBase, cfg.seconds/(4*rounds), (2*round-1)*w.pinAfter)
		plain = append(plain, requestWindows(phase)...)
		plainRates = append(plainRates, phaseRate(phase))
		restores -= rig.g.Stat().Restores
		phase = rig.drive(tracedBase, cfg.seconds/(4*rounds), 2*round*w.pinAfter)
		restores += rig.g.Stat().Restores
		traced = append(traced, phase...)
		tracedRates = append(tracedRates, phaseRate(phase))
	}
	requests, cycles := rig.bookRequests(res)

	// Spans: one parent per traced request as the client saw it, one
	// child for the handler inside it. Self time is the HTTP round trip
	// around the handler.
	log := newSpanLog(cfg.quick)
	var handlerMs, overheadMs sample
	for _, r := range traced {
		h := mw.span(r.no)
		log.openSlice(r.start)
		log.child(layerHandler, h.start, h.dur)
		log.closeSlice(r.dur)
		handlerMs = append(handlerMs, ms(h.dur.Seconds()))
		overheadMs = append(overheadMs, ms((r.dur - h.dur).Seconds()))
	}
	var kvCyc sample
	for _, ks := range rig.sessions {
		kvCyc = append(kvCyc, ks.kvCyc...)
	}
	res.set("serve.handler_ms_p50", handlerMs.median())
	res.set("serve.handler_ms_p90", handlerMs.quantile(0.9))
	res.set("serve.http_overhead_ms_p50", overheadMs.median())
	res.set("serve.restore_share", ratio(float64(restores), float64(len(traced))))
	res.set("serve.sim_cycles_per_req", ratio(float64(cycles), float64(requests)))
	res.set("cst.kv_cycles_p50", kvCyc.median())
	res.set("cst.kv_cycles_p99", kvCyc.quantile(0.99))
	res.setClient(plain)
	res.set("trace.overhead_ratio", ratio(tracedRates.median(), plainRates.median()))
	res.set("trace.spans", float64(len(log.spans)))
	res.set("trace.accounted_share", 1-log.worstOver)
	res.check(log.worstOver <= 0.02, "handler spans exceed their request by %.1f%% of it", 100*log.worstOver)

	replayS, err := rig.verify(res, rig.g, "served")
	if err != nil {
		return err
	}
	res.set("serve.sim_ms_per_req", ms(replayS)/float64(requests))

	// The commit, alone: what every mutating request does after
	// simulating.
	var commitMs sample
	for n := 0; n < 5*len(rig.sessions); n++ {
		s, release, err := rig.g.Acquire(rig.sessions[n%len(rig.sessions)].id)
		if err != nil {
			return err
		}
		t := time.Now()
		err = s.Checkpoint()
		commitMs = append(commitMs, ms(time.Since(t).Seconds()))
		release()
		if err != nil {
			return err
		}
	}
	res.set("serve.commit_ms_p50", commitMs.median())

	// The restore, alone: Shutdown evicts every session, so each
	// Acquire that follows reads, decodes, rebuilds and restores one.
	var acquireMs sample
	for round := 0; round < 3; round++ {
		if err := rig.g.Shutdown(); err != nil {
			return err
		}
		for _, ks := range rig.sessions {
			t := time.Now()
			_, release, err := rig.g.Acquire(ks.id)
			if err != nil {
				return err
			}
			acquireMs = append(acquireMs, ms(time.Since(t).Seconds()))
			release()
		}
	}
	res.set("serve.acquire_evicted_ms_p50", acquireMs.median())

	// Recovery: a second manager opens the directory as a restarted
	// daemon would after kill -9 — the first one never shut down — and
	// touches every session.
	t := time.Now()
	recovered, err := serve.NewManager(rig.dir, w.maxResident)
	if err != nil {
		return err
	}
	for _, ks := range rig.sessions {
		_, release, err := recovered.Acquire(ks.id)
		if err != nil {
			return err
		}
		release()
	}
	res.set("serve.recover_ms", ms(time.Since(t).Seconds()))
	if _, err := rig.verify(res, recovered, "recovered"); err != nil {
		return err
	}

	// The checkpoint functions, alone, on one machine of the sessions'
	// kind.
	m, savers, err := newKVMachine(w.spec)
	if err != nil {
		return err
	}
	fresh, freshSavers, err := newKVMachine(w.spec)
	if err != nil {
		return err
	}
	got, err := timeCkpt(res, filepath.Join(rig.dir, "probe.ckpt"), m, savers, fresh, freshSavers)
	if err != nil {
		return err
	}
	res.check(got == m.StateDigest(), "checkpoint round trip: restored digest %016x, captured %016x", got, m.StateDigest())

	return log.write(cfg.outDir, cfg.workload)
}

// newKVMachine builds a machine the way a kv session does.
func newKVMachine(spec serve.Spec) (*machine.Machine, []ckpt.Saver, error) {
	p := cst.BuildKVProgram()
	m, err := machine.New(machine.GridForNodes(spec.Nodes), p)
	if err != nil {
		return nil, nil, err
	}
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	for id := range m.Nodes {
		cst.SetupKVNode(r, m, id, spec.Keys)
	}
	return m, []ckpt.Saver{r}, nil
}

// timeCkpt times each checkpoint function on m — capture, encode,
// crash-consistent write, read and validate, restore into fresh — as
// the median of a few round trips, and returns fresh's digest after
// the restore.
func timeCkpt(res *result, path string, m *machine.Machine, savers []ckpt.Saver, fresh *machine.Machine, freshSavers []ckpt.Saver) (uint64, error) {
	var capture, encode, write, read, restore sample
	var size int
	for i := 0; i < 5; i++ {
		t := time.Now()
		snap := ckpt.Capture(m, savers...)
		capture = append(capture, ms(time.Since(t).Seconds()))
		t = time.Now()
		size = len(snap.Encode())
		encode = append(encode, ms(time.Since(t).Seconds()))
		t = time.Now()
		if err := ckpt.WriteFile(path, snap); err != nil {
			return 0, err
		}
		write = append(write, ms(time.Since(t).Seconds()))
		t = time.Now()
		back, err := ckpt.ReadFile(path)
		if err != nil {
			return 0, err
		}
		read = append(read, ms(time.Since(t).Seconds()))
		t = time.Now()
		if err := ckpt.Restore(fresh, back, freshSavers...); err != nil {
			return 0, err
		}
		restore = append(restore, ms(time.Since(t).Seconds()))
	}
	if err := os.Remove(path); err != nil {
		return 0, err
	}
	res.set("ckpt.capture_ms", capture.median())
	res.set("ckpt.encode_ms", encode.median())
	res.set("ckpt.bytes", float64(size))
	res.set("ckpt.write_ms", write.median())
	res.set("ckpt.read_ms", read.median())
	res.set("ckpt.restore_ms", restore.median())
	return fresh.StateDigest(), nil
}
