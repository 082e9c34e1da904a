// jm-load is the synthetic load generator for jm-serve: it creates N
// concurrent kv sessions on a running daemon, drives each one through
// a deterministic op stream (seeded per session, so the exact same
// traffic is reproducible forever), and logs wall-clock request
// latency percentiles, sustained requests/sec, and the in-simulation
// per-op latency distribution (inject → reply, in machine cycles).
// Host speed is measured by the repo benchmark, not here: jm-load
// writes no report.
//
// With -verify (the default) it then replays every session's op stream
// standalone — in-process, no daemon, no checkpoints — and compares
// StateDigests: the daemon must produce byte-identical machine state
// no matter how many tenants it interleaved or how often it evicted
// and restored the session. A failed request or a divergent session
// makes it exit non-zero.
//
// Usage:
//
//	jm-load [-addr 127.0.0.1:8034] [-sessions 32] [-requests 10000]
//	        [-batch 4] [-nodes 8] [-keys 32] [-gateways 4] [-conc 16]
//	        [-seed 1] [-verify]
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jmachine/internal/serve"
	"jmachine/internal/sim"
)

// client is a thin JSON client for the jm-serve API.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// sessionRun is one session's generated stream and measured outcomes.
type sessionRun struct {
	id     string
	reqs   []serve.ReplayReq
	wallMs []float64 // per-request client latency
	cycles []int64   // per-op simulated latency
	errs   int64
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8034", "jm-serve address")
	sessions := flag.Int("sessions", 32, "concurrent sessions to create")
	requests := flag.Int("requests", 10000, "total kv requests across all sessions")
	batch := flag.Int("batch", 4, "ops per request")
	nodes := flag.Int("nodes", 8, "nodes per session machine (power of two)")
	keys := flag.Int("keys", 32, "key-space size per session")
	gateways := flag.Int("gateways", 4, "gateway nodes per session")
	conc := flag.Int("conc", 16, "client goroutines (sessions driven concurrently)")
	seed := flag.Int64("seed", 1, "base op-stream seed (session i uses seed+i)")
	verify := flag.Bool("verify", true, "replay every stream standalone and compare digests")
	// The part of the run configuration a session spec can carry: the
	// daemon owns each session's checkpoint file, and sessions run the
	// interpreter.
	var sc sim.Config
	sc.Register(flag.CommandLine, "compiled", "ckpt", "ckpt-every", "resume")
	flag.Parse()
	log.SetPrefix("jm-load: ")
	log.SetFlags(0)

	if *sessions < 1 || *requests < 1 || *batch < 1 {
		log.Fatal("-sessions, -requests, and -batch must be positive")
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	c := &client{base: "http://" + *addr, hc: &http.Client{}}
	if err := c.do("GET", "/v1/healthz", nil, nil); err != nil {
		log.Fatalf("daemon not reachable: %v", err)
	}

	spec := serve.Spec{
		Workload: "kv", Nodes: *nodes, Reference: sc.Reference,
		Keys: *keys, Gateways: *gateways,
	}
	perSession := (*requests + *sessions - 1) / *sessions

	// Create the fleet and pre-generate every stream: session i's
	// traffic is GenOps(seed+i, ...), batched -batch ops per request.
	runs := make([]*sessionRun, *sessions)
	for i := range runs {
		var created struct {
			ID string `json:"id"`
		}
		if err := c.do("POST", "/v1/sessions", spec, &created); err != nil {
			log.Fatalf("create session %d: %v", i, err)
		}
		ops := serve.GenOps(*seed+int64(i), *keys, perSession**batch)
		r := &sessionRun{id: created.ID}
		for o := 0; o < len(ops); o += *batch {
			r.reqs = append(r.reqs, serve.ReplayReq{Ops: ops[o : o+*batch]})
		}
		runs[i] = r
	}
	log.Printf("created %d sessions (%d nodes, %d keys, %d gateways each); driving %d requests of %d ops",
		*sessions, *nodes, *keys, *gateways, perSession**sessions, *batch)

	// Drive. A session's requests are a stream and must stay in order,
	// so concurrency fans out across sessions: -conc workers pull whole
	// sessions off a queue.
	var done atomic.Int64
	queue := make(chan *sessionRun, len(runs))
	for _, r := range runs {
		queue <- r
	}
	close(queue)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				for _, req := range r.reqs {
					var resp struct {
						Results []serve.KVResult `json:"results"`
					}
					t0 := time.Now()
					err := c.do("POST", "/v1/sessions/"+r.id+"/kv",
						map[string]any{"ops": req.Ops}, &resp)
					if err != nil {
						log.Printf("session %s: %v", r.id, err)
						r.errs++
						continue
					}
					r.wallMs = append(r.wallMs, float64(time.Since(t0).Microseconds())/1000)
					for _, res := range resp.Results {
						r.cycles = append(r.cycles, res.Latency)
					}
					if n := done.Add(1); n%1000 == 0 {
						log.Printf("%d/%d requests", n, perSession**sessions)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var allWall []float64
	var allCycles []int64
	var errs, reqsDone, opsDone int64
	for _, r := range runs {
		allWall = append(allWall, r.wallMs...)
		allCycles = append(allCycles, r.cycles...)
		errs += r.errs
		reqsDone += int64(len(r.wallMs))
		opsDone += int64(len(r.cycles))
	}
	log.Printf("%d requests (%d ops) in %.2fs: %.0f req/s, wall p50/p99 = %.2f/%.2f ms, cycle p50/p99 = %d/%d",
		reqsDone, opsDone, wall, float64(reqsDone)/wall,
		percentile(allWall, 50), percentile(allWall, 99), percentile(allCycles, 50), percentile(allCycles, 99))

	verified := 0
	if *verify {
		for i, r := range runs {
			var dig struct {
				Digest string `json:"digest"`
			}
			if err := c.do("GET", "/v1/sessions/"+r.id+"/digest", nil, &dig); err != nil {
				log.Fatalf("digest %s: %v", r.id, err)
			}
			_, want, err := serve.Replay(spec, r.reqs)
			if err != nil {
				log.Fatalf("standalone replay of session %d: %v", i, err)
			}
			if dig.Digest != fmt.Sprintf("%016x", want) {
				log.Printf("DIVERGENCE: session %s digest %s, standalone %016x", r.id, dig.Digest, want)
				continue
			}
			verified++
		}
		log.Printf("verified %d/%d sessions against standalone replay", verified, *sessions)
	}

	if errs > 0 {
		log.Fatalf("%d requests failed", errs)
	}
	if *verify && verified != *sessions {
		log.Fatalf("digest divergence: only %d/%d sessions verified", verified, *sessions)
	}
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method, sorting xs in place. Empty input yields zero.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	slices.Sort(xs)
	i := int(float64(len(xs))*p/100+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
