package ckpt_test

// Serialization-parity guard: a reflection walk over every struct
// reachable from the checkpointed roots (machine.Machine, rt.Runtime,
// rt.Reliable, chaos.Injector) asserts that each field is explicitly
// classified — either serialized by the checkpoint codec or listed as
// derived/scratch state with no digest effect. Adding a field to any
// of these structs fails this test until the codec (and the spec
// below) is updated, so the checkpoint format can never silently fall
// behind the simulation state.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"jmachine/internal/chaos"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
)

// paritySpec classifies one struct's fields.
type paritySpec struct {
	// serialized fields are written by the checkpoint codec (directly
	// or via a chained SaveState/CkptSave).
	serialized []string
	// derived fields are deliberately NOT serialized: rebuilt by the
	// constructor, recomputed on restore, host-side scratch, or
	// attached machinery that a fresh process re-creates. Every entry
	// here is a reviewed decision, not an omission.
	derived []string
}

// opaquePkgs stops the walk at foreign or immutable types: their
// internals are not simulation state owned by the checkpoint.
var opaquePkgs = []string{
	"sync",
	"sync/atomic",
	"math/rand",
	"os",
	"bufio",
	"time",
}

// opaqueTypes stops the walk at specific types treated as leaf values
// by the codec or as immutable run inputs covered by fingerprints.
var opaqueTypes = map[string]bool{
	"jmachine/internal/word.Word":         true, // codec leaf (tag+data)
	"jmachine/internal/asm.Program":       true, // immutable input, fingerprinted
	"jmachine/internal/machine.Config":    true, // construction input, dims verified
	"jmachine/internal/chaos.Event":       true, // immutable campaign input, fingerprinted
	"jmachine/internal/chaos.Campaign":    true, // immutable campaign input, fingerprinted
	"jmachine/internal/rt.ReliableConfig": true, // construction input, verified literally
	"jmachine/internal/rt.Policy":         true, // construction input (function table)
	"jmachine/internal/rt.ProgramInfo":    true, // derived from the program
}

var paritySpecs = map[string]paritySpec{
	"jmachine/internal/machine.Machine": {
		serialized: []string{"Net", "Nodes", "cycle", "WatchdogTrips",
			"lastSig", "lastMove", "sigValid",
			"parked", "wakeAt", "needWake", "caughtUpTo"},
		derived: []string{
			"Cfg",        // construction input; dims verified on restore
			"Stats",      // view over the per-node stats.Node accumulators, serialized via each mdp.Node
			"cycleFns",   // attached hooks; re-attached by the restoring process
			"stepper",    // engine attachment; re-attached
			"watchdog",   // config window (SetWatchdog), not run state
			"fast",       // stepping-mode switch (SetFastPath), digest-neutral
			"nParked",    // recomputed from parked on restore
			"horizons",   // attached hook horizons; re-attached
			"compiledOn", // compiled-tier attachment flag; re-attached (compiled.Attach)
			"fuse",       // fusion fence, republished by every StepN; dead between runs
			"hot",        // live-node set, a function of parked/needWake/wakeAt; rebuilt on restore
			"nodeVisits", // host-work counter, outside StateDigest
		},
	},
	"jmachine/internal/machine.ProgressCounters": {
		serialized: []string{"Instrs", "Threads", "Faults", "PhitHops", "Delivered", "Returned"},
	},
	"jmachine/internal/network.Network": {
		serialized: []string{"routers", "queues", "out", "rr", "cycle", "stats", "actPhits", "actMsgs"},
		derived: []string{
			"cfg",                                                       // construction input
			"nbr",                                                       // topology, rebuilt by New
			"injectFns", "deliverFns", "dropFns", "stallFn", "filterFn", // attached hooks
			"act",          // active-router set, a function of occ and the outboxes; rebuilt on restore
			"act1",         // priority-1 set, a function of busy[1] and the priority-1 outboxes; rebuilt on restore
			"routerVisits", // host-work counter, outside StateDigest
			"portVisits",   // host-work counter, outside StateDigest
			"free",         // slot-block pool: blocks no router holds, all zero; RestoreState rebuilds which routers hold one
			"blocks",       // slot blocks allocated, a host-work counter outside StateDigest
		},
	},
	"jmachine/internal/network.router": {
		serialized: []string{"in", "outOwner", "inRoute", "linkStamp", "occ"},
		derived: []string{
			"x", "y", "z", "cross", // topology
			"pushStamp", "pushedNew", // within-cycle scratch, dead between cycles
			"busy", // occupied-port masks, a function of the buffers' n; rebuilt on restore
			"blk",  // slot-block pool state: the live slots are serialized per buffer, and RestoreState takes or returns the block
		},
	},
	"jmachine/internal/network.buf": {
		serialized: []string{"n", "popStamp"},
	},
	"jmachine/internal/network.phitRef": {
		serialized: []string{"m", "idx", "arrived"},
		derived: []string{
			"tail",           // idx == m.WirePhits()-1; recomputed on restore
			"dx", "dy", "dz", // m.DestX/Y/Z, constant while the phit is buffered; recomputed on restore
		},
	},
	"jmachine/internal/network.outbox": {
		serialized: []string{"msgs", "phitIdx", "words"},
	},
	"jmachine/internal/network.Message": {
		serialized: []string{"DestX", "DestY", "DestZ", "Pri", "Src", "Words",
			"EnqueueCycle", "DeliverCycle", "Returning", "absorb", "Returns",
			"origX", "origY", "origZ", "Seq", "Ctl", "HasCheck", "Check",
			"CorruptWord", "CorruptMask", "drop", "dropReason"},
		derived: []string{
			"pooled", // allocator bookkeeping; restored messages are never re-pooled
		},
	},
	"jmachine/internal/network.Stats": {
		serialized: []string{"Cycles", "PhitHops", "BisectionPhits", "DeliveredMsgs",
			"DeliveredWords", "LatencySum", "DeliveryStalls", "ReturnedMsgs",
			"Retransmits", "DroppedMsgs", "CorruptDrops", "DupDrops", "StallsInjected"},
	},
	"jmachine/internal/mdp.Node": {
		serialized: []string{"Mem", "Xl", "Queues", "Stats",
			"ctx", "cur", "stall", "stallCat", "region", "building", "pendingLen",
			"softQ", "softAlloc", "softUsed", "p0Soft",
			"halted", "frozen", "killed", "fatal", "cycle", "nnr"},
		derived: []string{
			"ID", "X", "Y", "Z", // topology
			"Cfg",         // construction input
			"Net", "Prog", // shared attachments; program is fingerprinted
			"Watch",                 // observer tap, deliberately outside StateDigest
			"softBase", "softWords", // derived from Cfg.SoftQueue in NewNode
			"faultFn", "syncHook", // attached system software / scheduler hooks
			"compiled", "fuse", // compiled-tier attachments; re-attached (compiled.Attach)
			"fuseSegs", "fuseHead", // fused charge plan; drained before every snapshot fence
			"fusedInstrs", // fusion diagnostic counter, outside StateDigest
			"fuseStats",   // fusion boundary/window accounting, outside StateDigest
		},
	},
	"jmachine/internal/mdp.Context": {
		serialized: []string{"Regs", "IP", "Running", "HandlerIP"},
	},
	"jmachine/internal/mdp.softMsg": {
		serialized: []string{"addr", "words"},
	},
	"jmachine/internal/queue.Queue": {
		serialized: []string{"buf", "capWords", "limit", "used", "arriving", "expecting",
			"msgs", "maxUsed", "delivered", "rejected"},
		derived: []string{
			"head",    // ring rotation is unobservable; restore rebases to 0
			"readyFn", // attached hook (the machine's wake); re-attached by New
		},
	},
	"jmachine/internal/mem.Memory": {
		serialized: []string{"pages", "size", "imemWords"},
	},
	"jmachine/internal/xlate.Table": {
		serialized: []string{"sets", "ways", "keys", "vals", "valid", "lru",
			"hits", "misses", "inserts", "evictions"},
	},
	"jmachine/internal/stats.Node": {
		serialized: []string{"Cycles", "Instrs", "Threads", "SendFaultCycles",
			"SendFaults", "MsgsSent", "WordsSent", "XlateFaults", "CfutFaults",
			"OverflowFaults", "classes", "cur"},
	},
	"jmachine/internal/stats.class": {
		serialized: []string{"ip", "HandlerStats"},
	},
	"jmachine/internal/stats.HandlerStats": {
		serialized: []string{"Invocations", "Instrs", "MsgWords"},
	},
	"jmachine/internal/rt.Runtime": {
		serialized: []string{"nodes"},
		derived: []string{
			"M",               // the machine, serialized as its own section
			"Policy",          // construction input (function table)
			"services",        // registered services; re-registered by the process
			"restore", "dack", // code addresses, derived from the program
		},
	},
	"jmachine/internal/rt.NodeState": {
		serialized: []string{"saved", "nextWaiter", "names"},
	},
	"jmachine/internal/rt.waiter": {
		serialized: []string{"id", "level", "ctx"},
	},
	"jmachine/internal/rt.binding": {
		serialized: []string{"key", "val"},
	},
	"jmachine/internal/rt.Reliable": {
		serialized: []string{"nodes", "stats", "seen", "err"},
		derived: []string{
			"rt",  // back-reference
			"cfg", // construction input, verified literally on restore
			"nn",  // machine node count
		},
	},
	"jmachine/internal/rt.relNode": {
		serialized: []string{"count", "pending"},
	},
	"jmachine/internal/rt.pendingMsg": {
		serialized: []string{"src", "destX", "destY", "destZ", "pri", "words", "deadline", "attempts"},
	},
	"jmachine/internal/rt.ReliableStats": {
		serialized: []string{"Tracked", "AcksSent", "AcksReceived", "Retries", "DupAcked", "Failures"},
	},
	"jmachine/internal/chaos.Injector": {
		serialized: []string{"next", "stalls", "expiries", "armed", "applied", "corrupts"},
		derived: []string{
			"m",        // back-reference
			"campaign", // immutable input, fingerprint-verified
			"events",   // sorted copy of the campaign, fingerprint-verified
		},
	},
	"jmachine/internal/chaos.activeStall": {
		serialized: []string{"node", "port", "until"},
	},
	"jmachine/internal/chaos.expiry": {
		serialized: []string{"cycle", "node", "pri", "kind"},
	},
}

func typeKey(ty reflect.Type) string {
	if ty.PkgPath() == "" {
		return ty.String()
	}
	return ty.PkgPath() + "." + ty.Name()
}

func opaque(ty reflect.Type) bool {
	if opaqueTypes[typeKey(ty)] {
		return true
	}
	pkg := ty.PkgPath()
	for _, p := range opaquePkgs {
		if pkg == p {
			return true
		}
	}
	return false
}

func TestSerializationParity(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"/*")
		case reflect.Map:
			walk(ty.Key(), path+"/key")
			walk(ty.Elem(), path+"/val")
		case reflect.Struct:
			if opaque(ty) || seen[ty] {
				return
			}
			seen[ty] = true
			key := typeKey(ty)
			if ty.Name() == "" {
				t.Errorf("unnamed struct at %s: name it so it can carry a parity spec", path)
				return
			}
			var fields []string
			for i := 0; i < ty.NumField(); i++ {
				fields = append(fields, ty.Field(i).Name)
			}
			sp, ok := paritySpecs[key]
			if !ok {
				t.Errorf("no parity spec for %s (reached via %s); classify its fields: %v", key, path, fields)
				return
			}
			classified := map[string]string{}
			for _, f := range sp.serialized {
				classified[f] = "serialized"
			}
			for _, f := range sp.derived {
				if classified[f] != "" {
					t.Errorf("%s: field %s classified twice", key, f)
				}
				classified[f] = "derived"
			}
			have := map[string]bool{}
			for _, f := range fields {
				have[f] = true
				if classified[f] == "" {
					t.Errorf("%s: field %s is not covered by the checkpoint codec and not justified as derived — update internal/ckpt and this spec", key, f)
				}
			}
			var stale []string
			for f := range classified {
				if !have[f] {
					stale = append(stale, f)
				}
			}
			sort.Strings(stale)
			if len(stale) > 0 {
				t.Errorf("%s: parity spec lists removed fields %v", key, stale)
			}
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				if classified[f.Name] != "serialized" {
					continue // derived subtrees are not checkpoint-owned
				}
				walk(f.Type, fmt.Sprintf("%s.%s", path, f.Name))
			}
		}
	}
	walk(reflect.TypeOf(machine.Machine{}), "machine.Machine")
	walk(reflect.TypeOf(rt.Runtime{}), "rt.Runtime")
	walk(reflect.TypeOf(rt.Reliable{}), "rt.Reliable")
	walk(reflect.TypeOf(chaos.Injector{}), "chaos.Injector")
}
