# Convenience targets; everything is plain `go` underneath.

.PHONY: build test check lint tables ckpt-smoke serve-smoke

build:
	go build ./...

test:
	go test ./...

# Full verification: vet, lint, race-detector tests, a time-boxed fuzz
# run, the benchmark module's vet + smoke test (inside `go test`), chaos
# and run-configuration smokes.
check:
	sh scripts/check.sh

# Determinism analyzers (JML001..6) + the MDP verifier/certifier
# smoke (ASM001..12).
# docs/LINT.md documents every diagnostic.
lint:
	go run ./cmd/jm-lint ./internal/...
	go run ./cmd/jm-jc -check examples/jlang/dotprod.j

# Regenerate the paper's tables and figures.
tables:
	go run ./cmd/jm-tables

# Crash-recovery smoke: SIGKILL a checkpointing run, resume, compare
# digests against an uninterrupted run. docs/CHECKPOINT.md.
ckpt-smoke:
	sh scripts/ckpt_smoke.sh

# Multi-tenant serving smoke: SIGKILL the jm-serve daemon mid-session,
# restart, require byte-identical recovery + a verified jm-load run.
# docs/SERVE.md.
serve-smoke:
	sh scripts/serve_smoke.sh
