// Package serve hosts many independent simulated J-Machines behind an
// HTTP/JSON API — the multi-tenant serving experiment of ROADMAP item
// 3. Each session is one machine with its own runtime and
// observability sinks; sessions persist as a checkpoint
// (internal/ckpt) plus a journal of the requests served since it: every
// request is journalled and synced before its reply, so LRU eviction
// under memory pressure, shutdown and kill -9 all leave a directory the
// next touch restores by checkpoint + replay.
//
// The layering rule that makes this safe: the service layer is fully
// concurrent (one HTTP request per goroutine), but every machine is
// owned by exactly one session and every session op runs under that
// session's mutex, between machine cycles, on whichever goroutine
// holds it. The simulation core itself never sees concurrency, so a
// session's final StateDigest depends only on its own request stream — never on
// how many neighbours it shares the daemon with (the equivalence tests
// pin this).
package serve

import (
	"errors"
	"fmt"

	"jmachine/internal/cst"
)

// Spec declares a session: what machine to build, which workload to
// load into it, and which observability layers to attach.
// It is written to the session directory verbatim and is everything
// needed to rebuild the machine after an eviction or a daemon crash.
// Decoding ignores fields it does not know, so a spec.json written with
// a field since removed (an engine shard count, say) still restores.
type Spec struct {
	// Workload is "kv" (the distributed key-value/RPC service built on
	// the cst object runtime) or "jlang" (a compiled jlang program).
	Workload string `json:"workload"`
	// Nodes is the machine size (kv requires a power of two).
	Nodes int `json:"nodes"`
	// Watchdog is the progress-watchdog window in cycles (0 = off).
	Watchdog int64 `json:"watchdog,omitempty"`
	// Budget is the per-request cycle budget (default 4,000,000).
	Budget int64 `json:"budget,omitempty"`

	// Source is the jlang program text (workload "jlang").
	Source string `json:"source,omitempty"`
	// Entry is the boot function (default "main").
	Entry string `json:"entry,omitempty"`
	// StartAll boots Entry on every node instead of node 0 only.
	StartAll bool `json:"start_all,omitempty"`

	// Keys is the kv key-space size (default 64).
	Keys int `json:"keys,omitempty"`
	// Gateways is how many nodes accept kv requests (default
	// min(4, Nodes)). Requests round-robin across them by sequence
	// number, so the request stream alone fixes the trajectory.
	Gateways int `json:"gateways,omitempty"`

	// Trace streams a Perfetto timeline to the session directory.
	Trace bool `json:"trace,omitempty"`
	// MetricsEvery samples JSONL metric snapshots every N cycles
	// (0 = off).
	MetricsEvery int `json:"metrics_every,omitempty"`
}

// DefaultBudget is the per-request cycle budget when Spec.Budget is 0.
const DefaultBudget = 4_000_000

// Normalize fills defaults and validates, returning the effective spec.
func (s Spec) Normalize() (Spec, error) {
	if s.Nodes <= 0 {
		s.Nodes = 8
	}
	if s.Budget <= 0 {
		s.Budget = DefaultBudget
	}
	switch s.Workload {
	case "kv":
		if s.Nodes&(s.Nodes-1) != 0 {
			return s, fmt.Errorf("kv workload requires a power-of-two node count, got %d", s.Nodes)
		}
		if s.Keys <= 0 {
			s.Keys = 64
		}
		if s.Keys > cst.KVKeyBase {
			return s, fmt.Errorf("keys %d exceeds the key-space limit %d", s.Keys, cst.KVKeyBase)
		}
		if s.Gateways <= 0 {
			s.Gateways = 4
		}
		if s.Gateways > s.Nodes {
			s.Gateways = s.Nodes
		}
	case "jlang":
		if s.Source == "" {
			return s, errors.New("jlang workload requires source")
		}
		if s.Entry == "" {
			s.Entry = "main"
		}
	default:
		return s, fmt.Errorf("unknown workload %q (want kv or jlang)", s.Workload)
	}
	return s, nil
}
