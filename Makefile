# Convenience targets for the MBPTA reproduction.

GO ?= go
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

.PHONY: test check staticcheck bench-all experiments race cover fuzz resume-check service-check matrix-check leak-check performability-check contention-check schedulability-check clean

test:
	$(GO) test ./...

# What CI runs: vet (+ staticcheck when installed) plus the full suite
# under the race detector, then the end-to-end kill-and-resume gate.
# The bench module is vetted and tested separately: it imports
# pkg/mbpta and internal/platform, and the root `go vet ./...` and
# `go test ./...` do not descend into nested modules.
check: staticcheck
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) service-check
	$(MAKE) resume-check
	$(MAKE) matrix-check
	$(MAKE) leak-check
	$(MAKE) performability-check
	$(MAKE) contention-check
	$(MAKE) schedulability-check

# Service-layer gate: the campaign fabric's bit-identity proofs
# (single-process == N-executor fabric, including a killed-and-
# re-leased executor, == journal-resumed), the same parity for a
# mitigated fault campaign (local == in-process fabric == fabric with a
# remote executor that must serve none of it) and for fault-injected
# matrix cells on the pool, clamp tallies independent of where runs
# executed, the pWCET service HTTP API, the daemon's serve/join/shutdown
# cycle, and the 120-concurrent-campaign stress test (fair scheduling +
# admission backpressure). Pool and local campaigns share one session
# engine: the fabric suite runs the supervision scenarios on the pool
# (TestPoolSupervision*), and the crash-resume test resumes every kill
# point on a pool as well as locally. Registry-built workloads (what
# the service and executors run) keep the zero-alloc run loop: the
# fabric suite checks that Build forwards Reloader and TraceKeyer, and
# TestSteadyStateZeroAlloc holds a registry-built TVCA (its one trace
# key recorded on run 1, every later run replayed) and a registry-built
# crc32 (reloaded) to 0 allocs/run, with no recording in the measured
# window.
service-check:
	$(GO) test ./internal/fabric/ ./internal/pwcetd/ ./cmd/pwcetd/
	$(GO) test -run 'TestFingerprintParityAcrossExecutionModes|TestFaultFingerprintParityAcrossExecutionModes|TestJournalCrashResumeBitIdentical' ./pkg/mbpta/
	$(GO) test -run 'TestClampedRunsCountDeliveredRuns' ./internal/faults/
	$(GO) test -run 'TestRunnerWithFabricPool' ./internal/matrix/
	$(GO) test -run 'TestSteadyStateZeroAlloc' .

# End-to-end durability gate: journal a campaign, kill it mid-flight,
# tear the journal tail, resume, and require a bit-identical report
# (exits non-zero on any fingerprint mismatch); then resume every kill
# point of the crash-resume test locally and on an executor pool.
resume-check:
	$(GO) run ./examples/resumable_campaign
	$(GO) test -run 'TestJournalCrashResumeBitIdentical' ./pkg/mbpta/

# Scenario-matrix cache gate: run a small matrix cold, re-run it after
# an analysis-only tweak, and require zero re-simulated runs, >=90%
# cache hits, bit-identical per-cell fingerprints, and a >=5x warm
# speedup (exits non-zero on any violation).
matrix-check:
	$(GO) run ./examples/matrix_check

# Timing-leak gate: measure the secret-dependent probe on DET and RAND
# and require the nine-decile quantile gate to flag DET as leaking
# (posterior >= 0.999) and clear RAND (posterior <= 0.5); exits
# non-zero otherwise. The pinned-seed golden variant with fingerprint
# checks lives in internal/experiments (TestLeakOracleGolden).
leak-check:
	$(GO) run ./examples/leak_check

# Performability gate: mitigation-off fault campaigns must fingerprint
# bit-identically to plain rate-only campaigns (the mitigation layer is
# invisible until switched on), and a pinned-seed sweep must price the
# schemes in order — lockstep pWCET > ECC pWCET > unmitigated clean
# bound (exits non-zero on any violation).
performability-check:
	$(GO) run ./examples/performability_check

# Multicore contention example: a 4-frame TVCA campaign solo and
# against three run-invariant streamers through pkg/mbpta, so co-runner
# recording and replay run end to end, then the analyzer on both
# campaigns. A rejected gate or a heavy tail is printed as the verdict;
# any other error exits non-zero.
contention-check:
	$(GO) run ./examples/multicore_contention

# Per-task schedulability example: an 800-run Frames-8 per-task
# campaign, per-task pWCETs and response-time analysis; its stdout must
# equal the committed expected output byte for byte.
schedulability-check:
	$(GO) run ./examples/schedulability | diff -u examples/schedulability/expected_output.txt -

# staticcheck is optional tooling: run it when present, skip with a
# notice otherwise (the sandbox image carries only the go toolchain).
staticcheck:
ifdef STATICCHECK
	$(STATICCHECK) ./...
else
	@echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
endif

# The platform package includes telemetry-enabled parallel campaigns
# (TestStreamTelemetryHarvest), so the harvest path is race-checked too.
# internal/faults covers the fault and mitigation campaign paths, and
# the pkg/mbpta line adds the parallel mitigated campaigns on top of
# the telemetry and fingerprint suites.
# Fault campaigns run on the fabric pool too, so the fault parity test
# (matched by 'Fingerprint') and the matrix's pooled fault cells are
# race-checked alongside the fabric suite, which includes the pool
# supervision tests; the crash-resume test adds resume on a pool.
# The Multicore board runs in one goroutine, so under race the
# platform suite checks the goroutines of its test-side reference
# board: every co-runner interpreted in its own goroutine behind one
# locked arbiter, which the equivalence tests compare the board with.
# The repo-root Multicore goldens run under race as well, on the board
# reused across runs with its campaign workers.
race:
	$(GO) test -race ./internal/platform/ ./internal/rng/ ./internal/faults/ ./internal/telemetry/
	$(GO) test -race ./internal/fabric/ ./internal/pwcetd/
	$(GO) test -race -run 'Telemetry|Fingerprint|Mitigat|TestJournalCrashResumeBitIdentical' ./pkg/mbpta/
	$(GO) test -race -run 'TestRunnerWithFabricPool' ./internal/matrix/
	$(GO) test -race -run 'TestMulticoreGolden' .

# Every benchmark in the repository, human-readable output only.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Full paper-scale evaluation (3,000 runs per campaign, ~3 min).
experiments:
	$(GO) run ./cmd/experiments -exp all -runs 3000

# Coverage floors on the statistics and observability packages that the
# rest of the pipeline's guarantees rest on, as package:floor pairs.
# internal/stats carries the quantile gate and the leak oracle's
# verdict, so its floor is 90%; the others hold at 70%.
COVER_FLOORS := ./internal/telemetry/:70 ./internal/stats/:90 ./internal/evt/:70

cover:
	@for entry in $(COVER_FLOORS); do \
		pkg=$${entry%:*}; floor=$${entry##*:}; \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "FAIL: $$pkg coverage $$pct% below the $$floor% floor"; exit 1; fi; \
	done
	$(GO) test -cover ./internal/... ./pkg/...

# Native fuzzing, 30s per target: the ISA interpreter against arbitrary
# instruction streams, the telemetry event codec in both directions, the
# campaign-journal (WAL) codec and recovery scan, the quantile
# estimator and nine-decile gate against adversarial samples (NaN/Inf,
# ties, denormals, tiny n), the online analyzer's incremental i.i.d.
# gate against the from-scratch gate under arbitrary batchings and
# restores, the hazard sampler against arbitrary
# profile parameters, and the cache and TLB fast paths (two-entry line
# and page records, bulk repeats, line-slot memo, micro-cache)
# differentially against the plain scan under arbitrary
# access/flush/reseed/upset streams, and
# the multicore board against its test-side reference board (each
# co-runner interpreted in its own goroutine behind a locked arbiter)
# over arbitrary co-runner loops, the timing model's fetch blocks
# against one-instruction blocks over arbitrary programs on every board
# kind, TVCA's trace key against its block streams (equal keys exactly
# when the streams are equal apart from FDIV/FSQRT operands, over input
# seed, transient probability, frames, unrolling and run pairs), a
# board's set of recorded traces against an interpreting board over
# arbitrary key sequences of a synthetic keyed workload (every run
# bit-identical, a replay only of the run's own key, a recording only
# of a recurring key, the byte budget held), and
# pwcetd's campaign-spec and matrix-spec request decoders (every body
# gets a 2xx or a typed 4xx). Seed corpora live under the packages'
# testdata/fuzz/ directories or in the fuzz targets' f.Add seeds.
fuzz:
	$(GO) test ./internal/isa/ -run '^$$' -fuzz '^FuzzInterpreter$$' -fuzztime 30s
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz '^FuzzEventRoundTrip$$' -fuzztime 30s
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz '^FuzzReadEvents$$' -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz '^FuzzRunRecordCodec$$' -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz '^FuzzDecodePayloads$$' -fuzztime 30s
	$(GO) test ./internal/stats/ -run '^$$' -fuzz '^FuzzEstimateQuantile$$' -fuzztime 30s
	$(GO) test ./internal/stats/ -run '^$$' -fuzz '^FuzzCompareQuantiles$$' -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzIncrementalIIDGate$$' -fuzztime 30s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzHazard$$' -fuzztime 30s
	$(GO) test ./internal/cache/ -run '^$$' -fuzz '^FuzzCacheAccessStream$$' -fuzztime 30s
	$(GO) test ./internal/tlb/ -run '^$$' -fuzz '^FuzzTLBLookupStream$$' -fuzztime 30s
	$(GO) test ./internal/platform/ -run '^$$' -fuzz '^FuzzMulticoreInlineReplay$$' -fuzztime 30s
	$(GO) test ./internal/platform/ -run '^$$' -fuzz '^FuzzFetchBlocks$$' -fuzztime 30s
	$(GO) test ./internal/platform/ -run '^$$' -fuzz '^FuzzTraceSet$$' -fuzztime 30s
	$(GO) test ./internal/tvca/ -run '^$$' -fuzz '^FuzzTraceKey$$' -fuzztime 30s
	$(GO) test ./internal/pwcetd/ -run '^$$' -fuzz '^FuzzCampaignSpecDecode$$' -fuzztime 30s
	$(GO) test ./internal/pwcetd/ -run '^$$' -fuzz '^FuzzMatrixSpecDecode$$' -fuzztime 30s

clean:
	$(GO) clean -testcache
