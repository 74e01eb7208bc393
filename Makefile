GO ?= go

.PHONY: tier1 build vet test race race-smp determinism figures-check tcp-conformance mem-budget core-alloc tier2 stress overload-stress adversarial-smoke fuzz-smoke bench bench-smoke loc

# tier1 is the repository's gate: everything must build, vet clean, and
# pass tests, with the race detector over the concurrency-heavy packages.
tier1: build vet test race

build:
	$(GO) build ./...

# vet also holds the formatting line: gofmt must have nothing to say about
# any tracked Go file.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | xargs -r gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists (run gofmt -w on them):"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/stm/... \
		./internal/tcp/ ./internal/httpd/ ./internal/bufpool/ \
		./internal/kernel/

# race-smp repeats the race leg with GOMAXPROCS pinned to 4 so parallel
# dispatch (N workers on the shared ready queue, the sharded kernel, the
# epoll harvest loop, the clock's epoch barrier) is exercised with real
# preemption interleavings even on wide CI machines. The bench package
# is included since the epoch-barrier clock: its determinism tests now
# assert reproducibility under real parallelism rather than assuming a
# single-P schedule.
race-smp:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/core/... \
		./internal/kernel/ ./internal/hio/ ./internal/vclock/ \
		./internal/bench/

# determinism is the figure-reproducibility gate: each figure CLI runs
# twice at GOMAXPROCS=4 and the outputs must be byte-identical. This is
# the end-to-end check of the epoch-barrier clock — virtual-time runs
# have no host-scheduled actor left, so real parallelism must not move a
# single byte of the default (hybrid-only) figure output. The -realtime
# baseline columns are excluded by construction: kernel-thread arrival
# order at the disk follows the host scheduler.
determinism:
	GOMAXPROCS=4 $(GO) run ./cmd/fig17disk -quick > det_fig17_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig17disk -quick > det_fig17_b.tmp
	cmp det_fig17_a.tmp det_fig17_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick > det_fig19_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick > det_fig19_b.tmp
	cmp det_fig19_a.tmp det_fig19_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig20loss -quick > det_fig20_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig20loss -quick > det_fig20_b.tmp
	cmp det_fig20_a.tmp det_fig20_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig21adversarial -quick > det_fig21_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig21adversarial -quick > det_fig21_b.tmp
	cmp det_fig21_a.tmp det_fig21_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig22c1m -quick -det > det_fig22_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig22c1m -quick -det > det_fig22_b.tmp
	cmp det_fig22_a.tmp det_fig22_b.tmp
	rm -f det_fig17_a.tmp det_fig17_b.tmp det_fig19_a.tmp det_fig19_b.tmp \
		det_fig20_a.tmp det_fig20_b.tmp det_fig21_a.tmp det_fig21_b.tmp \
		det_fig22_a.tmp det_fig22_b.tmp
	@echo "determinism: fig17/fig19/fig20/fig21/fig22 output byte-identical across GOMAXPROCS=4 runs"

# figures-check gates the figure bytes themselves: the four deterministic
# figure CLIs run at full size (about 35 s together) and each output must
# equal its committed capture in results/ byte for byte. A change that
# moves a figure fails here, and re-baselining is then an explicit diff of
# results/ with the reason recorded in EXPERIMENTS.md.
figures-check:
	$(GO) run ./cmd/fig17disk | cmp - results/fig17.txt
	$(GO) run ./cmd/fig19web | cmp - results/fig19.txt
	$(GO) run ./cmd/fig19web -cached | cmp - results/fig19-cached.txt
	$(GO) run ./cmd/fig21adversarial | cmp - results/fig21.txt
	@echo "figures-check: fig17/fig19/fig19-cached/fig21 equal results/ byte for byte"

# tcp-conformance replays every packet-trace scenario against its
# committed golden twice, under the race detector at GOMAXPROCS=4: the
# traces are asserted byte-identical to the goldens, run-to-run, and
# across real parallelism — any change to retransmission order, SACK
# blocks, ACK generation, or cwnd arithmetic fails the leg with a diff.
tcp-conformance:
	GOMAXPROCS=4 $(GO) test -race -count=2 ./internal/tcp/tracecheck/

# mem-budget is the blocking per-connection memory gate: establish 16384
# parked keep-alive connections and fail if live heap per connection
# exceeds 7168 bytes. The measured figure is about 6.75 KB (4 KB of it the
# handler's pooled read buffer), so the gate has ~400 bytes of slack: a
# change that re-eagers buffer allocation — the old flat rings cost
# 137.7 KB/conn — fails here, and so does one that parks a few hundred
# bytes of per-request state on every connection (pre-applying the serve
# loop's write traces naively cost +940 B/conn, which a 9216 budget let
# through).
mem-budget:
	$(GO) run ./cmd/memtest -threads 1000 -conns 16384 -budget 7168

# core-alloc is the blocking fast-path allocation gate: AllocsPerRun pins
# only, no timing, so it cannot flake on machine speed. It holds the
# continuation-flattening line — fused Loop/ForN/RepeatN iterations at
# zero allocations, the cached-GET serve loop within its per-request
# budget — so a change that quietly re-introduces per-iteration closure
# or node allocation fails here, not in the next perf investigation. The
# hio pins hold the I/O wrappers to it: core.Poll replayed at zero per
# attempt and per message, the generic SockSend/SockRead ping-pong at
# what its two parks cost.
core-alloc:
	$(GO) test -run 'Alloc' -count=1 ./internal/core/ ./internal/hio/ ./internal/bench/ ./internal/httpd/

# tier2 is the extended, non-gating suite (~30s): the randomized
# scheduler stress tests under the race detector, the seeded overload
# smoke (a 4× load burst through admission control and the circuit
# breaker, replayed for counter determinism), the seeded adversarial
# smoke (a hostile fleet whose attack mode is drawn from the seed,
# contesting a hardened slot-limited server against good clients,
# replayed for shed/reap counter determinism), plus a short fuzz smoke
# over every fuzz target. Failures print the seed to replay
# (STRESS_SEED=<seed> make stress / overload-stress / adversarial-smoke).
tier2: stress overload-stress adversarial-smoke fuzz-smoke

stress:
	$(GO) test -race -run 'Stress' -count=1 ./internal/core/

overload-stress:
	$(GO) test -race -run 'StressOverload' -count=1 -v ./internal/httpd/

adversarial-smoke:
	$(GO) test -race -run 'StressAdversarial' -count=1 -v ./internal/loadgen/

fuzz-smoke:
	$(GO) test -run FuzzParseRequest -fuzz FuzzParseRequest -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzHeadBuffer -fuzz FuzzHeadBuffer -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzParseResponseHead -fuzz FuzzParseResponseHead -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzVecModel -fuzz FuzzVecModel -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzVecSliceBounds -fuzz FuzzVecSliceBounds -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzServeLattice -fuzz FuzzServeLattice -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzBufpoolRoundtrip -fuzz FuzzBufpoolRoundtrip -fuzztime 5s ./internal/bufpool/
	$(GO) test -run FuzzSackRanges -fuzz FuzzSackRanges -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzSegmentRoundtrip -fuzz FuzzSegmentRoundtrip -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzFusedEquivalence -fuzz FuzzFusedEquivalence -fuzztime 5s ./internal/core/

# loc regenerates the LOC table in EXPERIMENTS.md (between the loc:begin
# and loc:end markers) from wc -l, so the server and scheduler sizes set
# against the paper's 370 and 220 lines are counted, not remembered. CI
# runs it and fails if the committed table differs.
loc:
	@awk -v server="$$(wc -l < internal/httpd/server.go)" \
		-v sched="$$(cat internal/core/runtime.go internal/core/queue.go | wc -l)" ' \
		/<!-- loc:end/ { skip = 0 } \
		!skip { print } \
		/<!-- loc:begin/ { skip = 1; \
			print "| component | paper | this repo | files counted |"; \
			print "|---|---:|---:|---|"; \
			printf "| web server | 370 | %d | `internal/httpd/server.go` |\n", server; \
			printf "| scheduler | 220 | %d | `internal/core/runtime.go` + `queue.go` |\n", sched }' \
		EXPERIMENTS.md > EXPERIMENTS.md.tmp
	@mv EXPERIMENTS.md.tmp EXPERIMENTS.md

# bench is the reproducible performance harness: the quick Figure 17/19
# configurations, the full Figure 20 loss-recovery sweep, the full
# Figure 21 adversarial contest, the full Figure 22 million-connection
# capacity sweep, and the hot-path Go microbenchmarks with -benchmem,
# written as machine-readable rows to BENCH_fig17.json/BENCH_fig19.json/
# BENCH_fig20.json/BENCH_fig21.json/BENCH_fig22.json, with the
# monadic-core trampoline pair in BENCH_core.json (BENCH_LABEL tags
# the rows; -append preserves the committed trajectory — run
# `$(GO) run ./cmd/benchjson -h` for one-off layouts).
BENCH_LABEL ?= dev

bench:
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -append
	$(GO) test -run '^$$' -bench . -benchmem -count=1 ./internal/bench/

# bench-smoke is the CI-sized slice: every benchmark runs once (catching
# bit-rot), the allocation-budget pins diff allocs/op against the
# checked-in bounds, and the microbenchmark rows land in
# BENCH_smoke.json for artifact upload — the committed trajectory files
# are never rewritten.
# (-run '^$' keeps -benchtime=1x away from the testing.Benchmark-backed
# budget test, which needs a full-length run to amortize setup)
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem -count=1 ./internal/bench/
	$(GO) test -run 'Alloc' -count=1 ./internal/bench/ ./internal/httpd/ ./internal/stats/
	$(GO) run ./cmd/benchjson -micro-only -label smoke -fig19 BENCH_smoke.json -core BENCH_smoke_core.json
