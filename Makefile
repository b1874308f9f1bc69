GO ?= go
FUZZTIME ?= 10s
# MAXREGRESS is the enforced ns/op allowance of bench-diff. BENCHCOUNT
# runs each benchmark N times and benchjson keeps the fastest (least
# interference) observation, on both the recorded baselines and the
# gated reruns, so one preempted run cannot fail the gate. Even so,
# wall time on shared hardware drifts across whole-process runs
# (measured up to ~20% between invocations of identical code), so the
# default allowance is sized to catch real regressions without flaking;
# tighten it (MAXREGRESS=10) on quiet dedicated hardware.
MAXREGRESS ?= 25
BENCHCOUNT ?= 3

.PHONY: build test bench bench-pipeline bench-serve bench-repo bench-repl bench-diff fmt-check loc-delta verify fuzz-smoke chaos-smoke repl-smoke jobs-smoke shard-smoke heal-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# PIPELINE_BENCH selects the root pipeline benchmarks of the layer
# ledger: XMI import+export, XMI import alone (HoardingPermit and a
# 300-ABIE export), the built-in constraint table (HoardingPermit and a
# 300-ABIE model), the OCL interpreter user rules run on, model
# validation, the RDF Schema and RELAX NG emitters, XSD generation at
# 100 ABIEs, on the 300-ABIE model the resolve index, the plan and emit
# of every target and the read-back of its annotated XSD set, and
# instance validation of a HoardingPermit message.
PIPELINE_BENCH = ^Benchmark(XMIRoundTrip|XMIImport|XMIImport300|Constraints|Constraints300|OCLEval|ValidateScaling100|RDFSGenerate|RelaxNGGenerate|GenerateScaling100|Resolve300|Emit300|ParseSchema300|InstanceValidation)$$

# bench-pipeline records the pipeline stages (import, OCL, validation,
# emit per backend) in BENCH_pipeline.json, the layer ledger that
# EXPERIMENTS.md quotes.
bench-pipeline:
	$(GO) test . -run='^$$' -bench='$(PIPELINE_BENCH)' -benchmem -count=$(BENCHCOUNT) \
		| tee /dev/stderr | $(GO) run ./internal/tools/benchjson -o BENCH_pipeline.json

# bench-serve measures the HTTP service: memoized vs cold /v1/generate,
# /v1/validate, and wire-level end-to-end requests. The text output is
# converted to BENCH_serve.json (the cache-hit/miss ratio is the
# acceptance metric for the schema cache).
bench-serve:
	$(GO) test ./internal/server -run='^$$' -bench='BenchmarkServe' -benchmem -count=$(BENCHCOUNT) \
		| tee /dev/stderr | $(GO) run ./internal/tools/benchjson -o BENCH_serve.json

# bench-repo measures the schema repository: a cold publish (full
# pipeline + blob writes + WAL commit), a warm publish (full dedup, the
# steady-state cost of republishing known content) and a stored-file
# read. The warm/cold gap is the acceptance metric for content
# addressing.
bench-repo:
	$(GO) test ./internal/repo -run='^$$' -bench='BenchmarkRepo' -benchmem -count=$(BENCHCOUNT) \
		| tee /dev/stderr | $(GO) run ./internal/tools/benchjson -o BENCH_repo.json

# bench-repl measures read parity between a primary and a WAL-shipped
# follower: both serve stored schema files from their own
# content-addressed store, so the primary/follower ns/op gap is the
# acceptance metric for the read fan-out (replication must live
# entirely off the read path).
bench-repl:
	$(GO) test ./internal/repl -run='^$$' -bench='BenchmarkRepl' -benchmem -count=$(BENCHCOUNT) \
		| tee /dev/stderr | $(GO) run ./internal/tools/benchjson -o BENCH_repl.json

# bench-diff reruns the pipeline, serving and repository benchmark
# suites and diffs them against the committed BENCH_*.json baselines,
# failing on a >$(MAXREGRESS)% ns/op regression. The ns/op gate is enforced in
# verify (the baselines are committed and stable); allocation gates
# stay advisory (-alloc-advisory) — alloc drift is reported, not
# failing. Refresh the baselines (make bench-serve bench-repo
# bench-repl bench-pipeline) on intended changes.
bench-diff:
	$(GO) test . -run='^$$' -bench='$(PIPELINE_BENCH)' -benchmem -count=$(BENCHCOUNT) \
		| $(GO) run ./internal/tools/benchjson -baseline BENCH_pipeline.json -max-regress $(MAXREGRESS) -alloc-advisory
	$(GO) test ./internal/server -run='^$$' -bench='BenchmarkServe' -benchmem -count=$(BENCHCOUNT) \
		| $(GO) run ./internal/tools/benchjson -baseline BENCH_serve.json -max-regress $(MAXREGRESS) -alloc-advisory
	$(GO) test ./internal/repo -run='^$$' -bench='BenchmarkRepo' -benchmem -count=$(BENCHCOUNT) \
		| $(GO) run ./internal/tools/benchjson -baseline BENCH_repo.json -max-regress $(MAXREGRESS) -alloc-advisory
	$(GO) test ./internal/repl -run='^$$' -bench='BenchmarkRepl' -benchmem -count=$(BENCHCOUNT) \
		| $(GO) run ./internal/tools/benchjson -baseline BENCH_repl.json -max-regress $(MAXREGRESS) -alloc-advisory

# fuzz-smoke runs every fuzz target briefly against its seed corpus plus
# whatever the engine mutates in FUZZTIME. It is a smoke test of the
# ingestion hardening (resource limits, DTD rejection, truncation), not
# a soak: raise FUZZTIME for a real fuzzing session. Minimising a new
# input is bounded to 2s: go test's default of 60s outlasts FUZZTIME, so
# a target that found new coverage early spent the rest of its run
# minimising it (FuzzImport ran 121 inputs in 10s, and 19,445 with the
# bound, on 2 vCPUs).
FUZZFLAGS = -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s

fuzz-smoke:
	$(GO) test ./internal/xmi -run='^$$' -fuzz=FuzzImport $(FUZZFLAGS)
	$(GO) test ./internal/xsd -run='^$$' -fuzz=FuzzParse $(FUZZFLAGS)
	$(GO) test ./internal/xsdval -run='^$$' -fuzz=FuzzValidateInstance $(FUZZFLAGS)
	$(GO) test ./internal/ocl -run='^$$' -fuzz=FuzzParse $(FUZZFLAGS)
	$(GO) test ./internal/profile -run='^$$' -fuzz=FuzzConstraintOracle $(FUZZFLAGS)
	$(GO) test ./internal/gen -run='^$$' -fuzz=FuzzProfileJSON $(FUZZFLAGS)
	$(GO) test ./internal/jsonschema -run='^$$' -fuzz=FuzzJSONSchemaWriter $(FUZZFLAGS)
	$(GO) test ./internal/repo -run='^$$' -fuzz=FuzzWALDecode $(FUZZFLAGS)
	$(GO) test ./internal/durable -run='^$$' -fuzz=FuzzScan $(FUZZFLAGS)
	$(GO) test ./internal/shard -run='^$$' -fuzz=FuzzShardMapJSON $(FUZZFLAGS)

# chaos-smoke replays the disk-fault soak on its own: ENOSPC injected
# mid-publish under concurrent load must flip the service read-only
# (503 + Retry-After on writes, byte-identical reads), and clearing the
# fault must restore write mode through the background probe, with a
# retrying client's publish landing on its own. Run under -race so the
# degradation path is also proven data-race free.
chaos-smoke:
	$(GO) test ./internal/server -race -count=1 -run 'TestChaos' -timeout 120s

# repl-smoke replays the replication chaos suite under -race: the
# primary's service killed mid-publish burst and revived at the same
# address, the stream torn mid-frame by a proxy, a follower restart
# resuming from its applied seq, and auto-promotion under concurrent
# reads — follower reads byte-identical throughout, zero snapshot
# re-bootstraps on transport failures, zero goroutine leaks.
repl-smoke:
	$(GO) test ./internal/repl -race -count=1 -timeout 180s

# jobs-smoke replays the batch-job crash drill under -race: a worker
# killed mid-job (no checkpoint, WAL only), the manager reopened over
# the same directory, the surviving item's result preserved, the
# remainder resumed to completion — every result archive byte-identical
# to the synchronous /v1/generate answer — plus SSE progress ordering
# and the torn-WAL-tail recovery path.
jobs-smoke:
	$(GO) test ./internal/server -race -count=1 -run 'TestJobs' -timeout 180s
	$(GO) test ./internal/jobs -race -count=1 -timeout 180s

# shard-smoke replays the shard-cluster drill under -race: a 3-primary
# cluster, publishes fanned out across the ring (each landing on
# exactly one owner, wrong-shard requests answering 421 with a usable
# owner hint), then a rebalance onto a changed topology with one
# primary killed mid-migration — every subject must stay readable
# byte-identically from exactly one authoritative owner before, during
# and after, and re-POSTing the rebalance must resume and complete it.
shard-smoke:
	$(GO) test ./internal/server -race -count=1 -run 'TestShard' -timeout 180s
	$(GO) test ./internal/shard -race -count=1 -timeout 120s

# heal-smoke replays the self-healing cluster drill under -race: a
# 3-primary cluster with one standby replica and two concurrent
# supervisors, the replicated primary killed mid-publish burst
# (standby promoted and the map converged within the probe budget),
# then a replica-less primary forced read-only by an injected disk
# fault (its subjects evacuated onto the survivors) — every subject
# byte-identical from exactly one owner throughout, racing
# supervisors never installing conflicting epochs, zero goroutine
# leaks. Also covers the manual heal endpoint and the
# epoch-swap-mid-proxy race.
heal-smoke:
	$(GO) test ./internal/server -race -count=1 -run 'TestHeal' -timeout 180s

# loc-delta prints the lines added, deleted and net of the non-test Go
# files outside perfbench/ between BASE and the working tree, the
# figure every change reports: make loc-delta BASE=<commit>. Files
# count once git tracks them.
loc-delta:
	@test -n "$(BASE)" || { echo "usage: make loc-delta BASE=<commit>" >&2; exit 2; }
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench/' \
		| awk '{ add += $$1; del += $$2 } END { printf "added %d, deleted %d, net %d\n", add, del, add - del }'

# fmt-check fails when any Go file is not gofmt-formatted, listing it.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# verify is the full pre-merge gate: static checks (gofmt and vet), one
# uncached pass of the entire test suite under the race detector, vet
# and tests of the perfbench module, the fuzz smoke pass, and an
# enforced ns/op benchmark diff against the committed baselines
# (allocation drift stays advisory; see bench-diff for the regression
# allowance). The race pass covers every *-smoke drill above, since each
# is a subset of ./...; its per-package timeout is the largest any drill
# sets, so no drill runs under a looser bound. perfbench is its own
# module, so ./... never compiles it; the extra step keeps a facade
# change from breaking the end-to-end benchmark unnoticed.
verify: fmt-check
	$(GO) vet ./...
	$(GO) test -race -count=1 -timeout 180s ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-diff
