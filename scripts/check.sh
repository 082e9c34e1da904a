#!/bin/sh
# Repo-wide verification: vet, the full test suite under the race
# detector, and a short deterministic chaos smoke test (two runs of the
# same seeded campaign must produce byte-identical output, and every
# workload must survive it with reliable delivery enabled).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt, go vet"
test -z "$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }
go vet ./...

echo "== jm-lint (determinism analyzers, docs/LINT.md)"
# JML001..JML006 over the whole simulation tree; any diagnostic fails
# the build. The MDP assembly verifier and effect certifier
# (ASM001..ASM012) run inside `go test` below, swept over the rt
# library, every workload program, and compiled jlang shapes; the
# -check smoke here exercises the jm-jc surface.
go build -o /tmp/jm-lint-check ./cmd/jm-lint
/tmp/jm-lint-check ./internal/...
go build -o /tmp/jm-jc-check ./cmd/jm-jc
/tmp/jm-jc-check -check examples/jlang/dotprod.j

echo "== engine equivalence under the race detector"
# The engine's determinism contract, gated explicitly: every workload
# digest-equal to the sequential loop — including the observed
# variants, whose recorder must leave the digest untouched, and the
# fast-path sweep (TestFastPathEquiv*: ping, barrier, and the four
# applications under {reference, event-horizon} x shards {1,2,4,7}) —
# with the race detector checking the node-phase slabs (the active-set
# words, park count and outbox counter they share) and the recorder's
# staging path.
go test -race -count=1 ./internal/engine/

echo "== network properties under the race detector, and a fuzz run"
# The mesh's property test (random traffic x mesh shapes x arbitration
# x delivery regimes; conservation, order, no duplication, drain)
# injects from k node slabs on real goroutines, so the race detector
# sees the active-router bitmap's shared words the way the engine's node
# phase drives them. -short keeps a third of the table, three
# times over; the full table runs race-free in the coverage pass.
# FuzzNetwork is the same generator under the fuzzer, time-boxed.
go test -race -short -count=3 -run 'TestNetworkProperties' ./internal/network/
go test -run '^$' -fuzz FuzzNetwork -fuzztime 15s ./internal/network/
# BenchmarkNetworkStep (the stepping loop alone, docs/PERF.md "Network
# step cost") runs one iteration per case so that it keeps compiling
# and running.
go test -run '^$' -bench NetworkStep -benchtime 1x ./internal/network/
# FuzzJournal: the serve journal's decoder on damaged files — never a
# panic, a stable valid prefix (docs/SERVE.md, "Persistence").
go test -run '^$' -fuzz FuzzJournal -fuzztime 10s ./internal/serve/
# FuzzQueue: the message queue's lazily grown ring against a plain-slice
# FIFO model — occupancy, head words, digest and checkpoint bytes after
# every push, pop, squeeze and save/restore (docs/PERF.md, "Compact
# node state").
go test -run '^$' -fuzz '^FuzzQueue$' -fuzztime 10s ./internal/queue/
# FuzzHandlerTable: a node's ip-ordered handler-statistics table against
# a map model — every class, the busiest-class order, digest and
# checkpoint bytes after every dispatch, resume, instruction count and
# save/restore (docs/PERF.md, "Compact node state").
go test -run '^$' -fuzz '^FuzzHandlerTable$' -fuzztime 10s ./internal/stats/
# The other four targets, 10 s each beyond their seed corpus, which the
# plain test passes replay: checkpoint decode + restore on mutated
# bytes (FuzzRestore: each execution builds and restores a machine, so
# only ~18-28 run per second on a 2-core host), Perfetto/JSONL export
# (FuzzTraceExport), the effect certifier on random programs
# (FuzzCertifier), and compiled versus interpreted execution
# (FuzzCompiledVsInterpreter).
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s ./internal/ckpt/
go test -run '^$' -fuzz '^FuzzTraceExport$' -fuzztime 10s ./internal/obs/
go test -run '^$' -fuzz '^FuzzCertifier$' -fuzztime 10s ./internal/compiled/
go test -run '^$' -fuzz '^FuzzCompiledVsInterpreter$' -fuzztime 10s ./internal/compiled/

echo "== go test -race"
# The broad race pass runs -short (internal/compiled's engine rows
# included): the slowest sweeps (every-cycle observability sampling)
# run at full depth race-free in the coverage pass below, and the
# engine package already ran complete under race above.
go test -race -short ./...

echo "== go test -cover"
# The repo benchmark is a nested module that ./... never compiles; the
# root package's TestBenchmarkModule (skipped under -short above) runs
# `go vet . && go test .` in benchmark/ as part of this pass, so its
# goldens and cross-configuration digest checks guard every change.
go test -cover ./... | tee /tmp/jm-cover.out
echo "-- coverage summary"
awk '$1 == "ok" { for (i = 1; i <= NF; i++) if ($i == "coverage:") printf "%7s  %s\n", $(i+1), $2 }' \
    /tmp/jm-cover.out | sort -r
echo "-- coverage floors (internal/asm >= 90%, internal/compiled >= 80%)"
# internal/asm recovers handler CFGs and certifies effects, and
# internal/compiled turns them into closures; both are the compiled
# tier's trusted base, so their statement coverage is floored rather
# than merely reported — the verifier/certifier strictest, since every
# fusion license rests on it.
awk '$1 == "ok" && ($2 == "jmachine/internal/asm" || $2 == "jmachine/internal/compiled") {
        floor = ($2 == "jmachine/internal/asm") ? 90 : 80
        for (i = 1; i <= NF; i++) if ($i == "coverage:") {
            v = $(i+1); sub(/%/, "", v); found++
            printf "%7.1f%%  %s\n", v, $2
            if (v + 0 < floor) { printf "FAIL: %s below the %d%% floor\n", $2, floor; bad = 1 }
        }
    }
    END { if (found < 2) { print "FAIL: coverage rows for internal/asm + internal/compiled missing"; exit 1 }
          exit bad }' /tmp/jm-cover.out

echo "== chaos smoke"
go build -o /tmp/jm-chaos-check ./cmd/jm-chaos
SMOKE='-workload all -seed 11 -reliable -watchdog 100000'
/tmp/jm-chaos-check $SMOKE > /tmp/jm-chaos-check-1.out
/tmp/jm-chaos-check $SMOKE > /tmp/jm-chaos-check-2.out
cmp /tmp/jm-chaos-check-1.out /tmp/jm-chaos-check-2.out
echo "chaos smoke: all workloads completed, output deterministic"

echo "== run-configuration equivalence smoke"
# Every run-configuration flag delta (internal/sim, docs/ENGINE.md "Run
# configuration") at the CLI surface: the Table 4/5 text (thread
# statistics off full application runs) and the six chaos workloads
# must print byte-identical results under the oracle and the compiled
# tier as the default run produced.
# The package suites prove the same per cycle; this proves the shipped
# binaries agree end to end.
go build -o /tmp/jm-tables-check ./cmd/jm-tables
/tmp/jm-tables-check -quick -exp tab4,tab5 > /tmp/jm-tables-check.out
for delta in -reference -compiled; do
    /tmp/jm-tables-check -quick -exp tab4,tab5 $delta | cmp - /tmp/jm-tables-check.out
    /tmp/jm-chaos-check $SMOKE $delta | cmp - /tmp/jm-chaos-check-1.out
done
# The same workloads with no fault and no reliable delivery: no hook
# horizon then bounds a fused window, so only the run loops' own checks
# do (pingpong's RunWhile reads a flag its ack handler stores).
PLAIN='-workload all -seed 11 -faults 0'
/tmp/jm-chaos-check $PLAIN > /tmp/jm-chaos-check-plain.out
/tmp/jm-chaos-check $PLAIN -compiled | cmp - /tmp/jm-chaos-check-plain.out
echo "run-configuration smoke: Table 4/5 and six chaos workloads byte-identical across every flag delta, with and without faults"

echo "== checkpoint crash-recovery smoke"
# SIGKILL a checkpointing jm-chaos run after its first periodic
# checkpoint, resume in a fresh process, and require the final digest
# to match an uninterrupted run (docs/CHECKPOINT.md).
sh scripts/ckpt_smoke.sh

echo "== serve smoke"
# Multi-tenant daemon: create a session over HTTP, drive it past a
# journal compaction, SIGKILL the daemon twice, require byte-identical
# recovery (checkpoint + journal replay) each time, then a verified
# jm-load run (docs/SERVE.md).
sh scripts/serve_smoke.sh

echo "== trace smoke"
# The observability CLI must produce the same timeline on every run, and
# the oracle must write the timeline and metrics the default run (event-
# horizon stepping, the recorder's hook bounding it) wrote, byte for byte.
go build -o /tmp/jm-trace-check ./cmd/jm-trace
/tmp/jm-trace-check -perfetto /tmp/jm-trace-1.json -metrics /tmp/jm-trace-1.jsonl > /dev/null
/tmp/jm-trace-check -perfetto /tmp/jm-trace-2.json -metrics /tmp/jm-trace-2.jsonl > /dev/null
cmp /tmp/jm-trace-1.json /tmp/jm-trace-2.json
cmp /tmp/jm-trace-1.jsonl /tmp/jm-trace-2.jsonl
/tmp/jm-trace-check -perfetto /tmp/jm-trace-ref.json -metrics /tmp/jm-trace-ref.jsonl -reference > /dev/null
cmp /tmp/jm-trace-1.json /tmp/jm-trace-ref.json
cmp /tmp/jm-trace-1.jsonl /tmp/jm-trace-ref.jsonl
echo "trace smoke: timeline and metrics byte-identical across runs and with the oracle"

echo "== OK"
