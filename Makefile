# Developer entry points. `make check` is the gate every change must
# pass: vet (for the host and for arm64), the workers guard, build, the full test suite, the
# allocation pins, the race pass, a short fuzz smoke over every
# wire-format parser, the chaos
# smoke (the fault-injection suite under the race detector), the
# recovery smoke (kill -9 a checkpointing live pipeline, restart,
# verify restore and closed accounting), the diagnostics smoke (pull
# and validate diagnostic bundles from a running pipeline), the soak
# smoke (the live pipeline under an impaired wire plus a scrambled
# multi-pass feed, with both accounting ledgers required to close),
# the checkpoint sweep smoke, and the benchmark smoke (the performance
# ledger's correctness checks on every workload).
#
# CI runs each target once: its `check` job runs `make vet
# workers-guard build test allocs race fuzz-smoke`, and every smoke (plus impair-smoke, which
# `make check` leaves out) is a job of its own, so the two together
# cover exactly what `make check` does locally. The `check` job then
# fails if `git status --porcelain` is non-empty: no target may write
# into the checkout (seed corpora and goldens are written only under a
# test's -update flag).

GO ?= go

.PHONY: check vet workers-guard build test allocs race bench bench-smoke bench-checkpoint bench-checkpoint-smoke fuzz-smoke chaos-smoke recovery-smoke diag-smoke soak-smoke impair-smoke clean

check: vet workers-guard build test allocs race fuzz-smoke chaos-smoke recovery-smoke diag-smoke soak-smoke bench-checkpoint-smoke bench-smoke

# vet runs twice: for the host and for arm64. The export scan
# (TestExportsHaveCallers) type-checks only the host's build, so a
# deletion that strands a file under a build tag (block_generic.go, the
# non-amd64 scoring kernel) passes it and the amd64 build; the arm64
# pass catches it.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# workers-guard fails if anything outside benchmark/ still sets or reads
# LiveConfig.Workers, which the pipeline ignores (each shard is one
# goroutine); internal/ml's Workers fields belong to other types.
workers-guard:
	@if grep -rnE '\.Workers\b|\bWorkers:' --include='*.go' internal cmd examples | grep -v '^internal/ml/'; then \
		echo 'workers-guard: LiveConfig.Workers is ignored; delete the use above' >&2; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# allocs runs the allocation pins alone, uncached: what a row allocates
# on the ingest → decision path (core, at the tuned layout and at zero
# config), per scoring call with a warm label buffer (ml: every model
# family's PredictBatchInto and the ensemble vote), per log append
# (store), per feature vector and per flow created and evicted (flow),
# per decoded report (telemetry), per triage batch (the cascade's
# forest stage), and per followed and unfollowed journey hop (obs),
# plus the walks that keep the flow slot and the log
# record pointer-free. An allocation creeping back fails here in
# seconds, not in a 20-minute benchmark campaign.
allocs:
	$(GO) test -count=1 -run 'Allocs|PointerFree' ./internal/core/ ./internal/store/ \
		./internal/flow/ ./internal/telemetry/ ./internal/obs/ ./internal/ml/...

# The race detector's ~15x slowdown pushes the heavyweight experiment
# replays past the package timeout, so the race pass covers the
# packages where goroutines actually interact.
race:
	$(GO) test -race ./internal/core/... ./internal/obs/... \
		./internal/store/... ./internal/telemetry/... \
		./internal/netsim/... ./internal/flow/... \
		./internal/checkpoint/... ./internal/ml/sketch/...

# fuzz-smoke runs each fuzz target for 10s from its committed seed
# corpus (testdata/fuzz/) — enough to catch format-level regressions,
# and the flow table drifting from its map-based reference, without
# turning `make check` into a fuzzing campaign. A worker that finds new
# coverage minimizes the input before it fuzzes on, for up to 60 s by
# default: longer than the whole smoke, so one early find could leave a
# target a few dozen counted runs, so the smoke caps it at 1 s. Each
# target's output goes through scripts/fuzz_floor.sh, which fails the
# target unless its last `execs:` line counted FUZZFLOOR inputs: a
# stalled fuzzer is a red build, not a progress line.
FUZZTIME ?= 10s
FUZZFLOOR = 10000
FUZZ = $(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
FLOOR = 2>&1 | sh scripts/fuzz_floor.sh $(FUZZFLOOR)
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzDecodeHeader$$' ./internal/telemetry/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzDecodeHop$$' ./internal/telemetry/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzDecodeReport$$' ./internal/telemetry/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzDecode$$' ./internal/sflow/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzRead$$' ./internal/trace/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzDecode$$' ./internal/checkpoint/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzSketch$$' ./internal/ml/sketch/ $(FLOOR)
	$(FUZZ) -fuzz '^FuzzTable$$' ./internal/flow/ $(FLOOR)

# chaos-smoke runs the fault-injection suite under the race detector:
# the injector/wrapper unit tests plus every chaos scenario against
# the live pipeline (shard panics and restarts, prediction-log write
# retries and store_dropped rows, quorum degradation, shed/abandon
# accounting), the shard model (one goroutine per shard, a stall
# shorter than the shed bound, captures under load, per-flow order at
# 8 shards, the per-row vote span), the push path's failure modes (lone
# report, concurrent callers on one shard, a restored journal tail —
# also one written by the store-journal layout —, a prediction-log
# outage shorter and longer than the retry budget then silence, queue
# of one), the one
# ledger definition (table test over Closed/Settled, reports parked at
# ingest, the /healthz and stop-event rendering), the scorer's own
# table test, the Live-vs-Mechanism differential, the kill-restore
# suite, and the one-record-per-flow contract (a decision that outlived
# its flow leaves no window — TestSweepBoundsLateDecision…; a
# window-only delta, a v3 file with store records and an orphan window,
# a swept-and-re-created flow's window — TestKillRestore…). Fault
# schedules are seed-driven, so the run is deterministic per seed.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 -run \
		'TestChaos|TestLedger|TestPush|TestWorkerPanic|TestQuorum|TestModelRecovers|TestStoreRetries|TestDrainOnStop|TestShard|TestLiveShardAffinityOrdering|TestVoteSpan|TestHealthz|TestMalformed|TestKillRestore|TestRestoreRejects|TestPeriodicCheckpointer|TestSweepBounds|TestScore|TestLiveMatchesMechanism' \
		./internal/core/

# recovery-smoke kills a checkpointing live pipeline with SIGKILL and
# verifies a restart restores from the surviving checkpoint and closes
# its accounting (scripts/recovery_smoke.sh).
recovery-smoke:
	bash scripts/recovery_smoke.sh

# diag-smoke runs the live pipeline with the obs server on an
# ephemeral port, pulls /debug/bundle while it runs, collects the
# -diag-bundle exit bundle, and validates both archives with
# scripts/diagcheck (scripts/diag_smoke.sh).
diag-smoke:
	bash scripts/diag_smoke.sh

# soak-smoke runs the adverse-network soak under the race detector:
# the stage-2 ensemble fed a multi-pass reordered/duplicated/stale
# report stream materialized through a lossy wire, with a fault
# schedule firing inside the pipeline. Passes only if the report and
# pipeline ledgers both close and accuracy loss stays bounded (~30s).
soak-smoke:
	$(GO) test -race -count=1 -run TestSoakSmoke ./internal/experiment/

# impair-smoke regenerates the trimmed impairment sweep (baseline +
# the 1% loss / 0.1% dup acceptance point) and validates the artifact
# with diagcheck: accounting closed on every row, sane accuracies.
impair-smoke:
	$(GO) run ./cmd/reproduce -scale tiny -only impair -impair-quick \
		-impair-out $(CURDIR)/impair_smoke.json
	$(GO) run ./scripts/diagcheck -impair $(CURDIR)/impair_smoke.json
	rm -f $(CURDIR)/impair_smoke.json

# bench runs the one performance ledger (benchmark/, BENCHMARK.json):
# four paced workloads, the gated end-to-end metrics and every
# correctness check, ~2 min. `sh benchmark/run.sh -trace 1` is the
# per-layer run; see benchmark/README.md for -out/-compare.
bench:
	sh benchmark/run.sh

# bench-smoke is the ledger's correctness half alone: 1 s per workload
# through the real ingest path, then the closed ledger, the
# decision-to-row join, per-flow Seq order, and prediction-log ==
# decisions checks.
bench-smoke:
	$(GO) run ./benchmark -smoke

# bench-checkpoint measures checkpoint write (barrier + export +
# encode + atomic rename) and cold-boot restore at 10k/100k/1M
# resident flows and writes the sweep to BENCH_checkpoint.json.
bench-checkpoint:
	BENCH_CHECKPOINT_OUT=$(CURDIR)/BENCH_checkpoint.json $(GO) test -run '^$$' \
		-bench BenchmarkCheckpoint -benchtime 1x -timeout 30m .
	@echo wrote $(CURDIR)/BENCH_checkpoint.json

# bench-checkpoint-smoke is the CI gate for the checkpoint sweep: the
# smallest configuration only (enough to exercise capture, encode,
# atomic write, and restore — not to measure), then diagcheck
# validates the JSON shape: flow counts, positive size and write
# throughput, a barrier hold recorded and bounded by the write, and a
# restore that brought back every flow.
bench-checkpoint-smoke:
	BENCH_CHECKPOINT_OUT=$(CURDIR)/BENCH_checkpoint_smoke.json $(GO) test -run '^$$' \
		-bench 'BenchmarkCheckpoint/flows-10000$$' -benchtime 1x .
	$(GO) run ./scripts/diagcheck -bench-checkpoint $(CURDIR)/BENCH_checkpoint_smoke.json
	rm -f $(CURDIR)/BENCH_checkpoint_smoke.json

clean:
	rm -f BENCH_checkpoint_smoke.json impair_smoke.json
	rm -rf .bench_build benchmark/out
	$(GO) clean ./...
