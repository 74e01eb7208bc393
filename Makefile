GO ?= go

.PHONY: tier1 build vet test race race-smp determinism figures-check tcp-conformance mem-budget core-alloc tier2 stress overload-stress adversarial-smoke fuzz-smoke loc reach

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

# race includes the root package: the facade's Blio tests run each
# effect on a goroutine of its own. hio and loadgen hold the park record's
# users: kernel watches that wake a thread on whichever goroutine made a
# descriptor ready, and the request pump's retained Sleep. vclock and
# netsim hold the owned timers: real-clock arms re-armed from their own
# callbacks, and packet records recycled through a sync.Pool.
race:
	$(GO) test -race . ./internal/core/... ./internal/stm/... \
		./internal/tcp/ ./internal/httpd/ ./internal/bufpool/ \
		./internal/kernel/ ./internal/hio/ ./internal/loadgen/ \
		./internal/netsim/ ./internal/vclock/

# race-smp repeats the race leg with GOMAXPROCS pinned to 4 so parallel
# dispatch (N workers on the shared ready queue of a real clock, the
# sharded kernel, readiness callbacks run on whichever goroutine made a
# descriptor ready — an NPTL thread's wake included — and host Enter/Exit
# waking a virtual clock's worker) is exercised with real preemption
# interleavings even on wide CI machines. The bench package is included:
# its determinism tests assert reproducibility under real parallelism
# rather than assuming a single-P schedule. So is tcp, whose unit tests
# run as monadic threads on one worker and so read the same counts
# whatever the host schedules. loadgen and httpd park their clients and
# connections on reusable wait records woken from other goroutines, and
# netsim recycles its packet records through a sync.Pool.
race-smp:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/core/... \
		./internal/kernel/ ./internal/hio/ ./internal/vclock/ \
		./internal/nptl/ ./internal/bench/ ./internal/tcp/ \
		./internal/loadgen/ ./internal/httpd/ ./internal/netsim/

# determinism is the figure-reproducibility gate: each figure CLI, and
# cmd/webserver on both transports (one worker is its default), runs
# twice at GOMAXPROCS=4 and the outputs must be byte-identical. This is
# the end-to-end check of virtual time as one event loop — the worker
# fires every batch, so no host-scheduled actor is left and real
# parallelism (host goroutines still hold and release the clock) must not
# move a single byte of the default (hybrid-only) figure output. The -realtime
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
	GOMAXPROCS=4 $(GO) run ./cmd/webserver -files 256 -requests 256 -conns 16 > det_web_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/webserver -files 256 -requests 256 -conns 16 > det_web_b.tmp
	cmp det_web_a.tmp det_web_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/webserver -files 256 -requests 256 -conns 16 -tcp > det_webtcp_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/webserver -files 256 -requests 256 -conns 16 -tcp > det_webtcp_b.tmp
	cmp det_webtcp_a.tmp det_webtcp_b.tmp
	rm -f det_fig17_a.tmp det_fig17_b.tmp det_fig19_a.tmp det_fig19_b.tmp \
		det_fig20_a.tmp det_fig20_b.tmp det_fig21_a.tmp det_fig21_b.tmp \
		det_fig22_a.tmp det_fig22_b.tmp det_web_a.tmp det_web_b.tmp \
		det_webtcp_a.tmp det_webtcp_b.tmp
	@echo "determinism: fig17/fig19/fig20/fig21/fig22 and cmd/webserver (sockets, -tcp) output byte-identical across GOMAXPROCS=4 runs"

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
# exceeds 6848 bytes. The measured figure is 6,430.5 B (4 KB of it the
# handler's pooled read buffer), so the gate has ~420 bytes of slack: a
# change that re-eagers buffer allocation — the old flat rings cost
# 137.7 KB/conn — fails here, and so does one that parks a few hundred
# bytes of per-request state on every connection (pre-applying the serve
# loop's write traces naively cost +940 B/conn, which a 9216 budget let
# through; the overload wrapper's registry entry and Ensure frame cost
# +221 B/conn, which the 7168 budget hid).
mem-budget:
	$(GO) run ./cmd/memtest -threads 1000 -conns 16384 -budget 6848

# core-alloc is the blocking fast-path allocation gate: AllocsPerRun pins
# only, no timing, so it cannot flake on machine speed. It holds the
# continuation-flattening line — fused Loop/ForN/RepeatN iterations at
# zero allocations, the cached-GET serve loop within its per-request
# budget — so a change that quietly re-introduces per-iteration closure
# or node allocation fails here, not in the next perf investigation. The
# hio pins hold the I/O wrappers to it: core.Poll replayed at zero per
# attempt and per message, a read that parks on every message at zero
# (its spine's one wait record, linked by value), the generic
# SockSend/SockRead ping-pong at what its re-applied wrappers cost, a
# re-forced Sleep at zero, a virtual-clock Blio round trip at its one
# clock event, and the client's response-head parse at zero. Below the
# runtime the simulator's per-event costs are pinned the same way: an
# owned clock timer's arm at zero, a netsim packet at its one payload
# copy, a TCP segment encode/decode and an RTO re-arm at zero, and a TCP
# read that parks once per segment at zero beyond netsim's copies.
core-alloc:
	$(GO) test -run 'Alloc' -count=1 ./internal/core/ ./internal/hio/ ./internal/bench/ ./internal/httpd/ \
		./internal/tcp/ ./internal/netsim/ ./internal/vclock/

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
	$(GO) test -run FuzzChecksumMatchesNaive -fuzz FuzzChecksumMatchesNaive -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzFillPattern -fuzz FuzzFillPattern -fuzztime 5s ./internal/kernel/
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

# reach is the reachability audit (advisory; DESIGN.md "Reachability"):
# every CLI, every example and the benchmark are built with coverage over
# the whole module, run through the fixed invocation list below — each
# figure CLI at -quick under each of its flags, cmd/webserver on both
# transports and with admission, shedding and faults, the benchmark's four
# workloads — and every non-test function under internal/ or in hybrid.go
# that none of that traffic entered is printed. Tests are deliberately not
# counted: what only a test reaches is printed, and is either deleted or
# listed with its reason in DESIGN.md's table, which is checked against
# this output by hand. The last line counts them, so a document quotes
# the number the audit prints.
reach:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	mkdir $$d/cmd $$d/ex $$d/cov; \
	$(GO) build -cover -coverpkg=./... -o $$d/cmd/ ./cmd/... ./benchmark; \
	$(GO) build -cover -coverpkg=./... -o $$d/ex/ ./examples/...; \
	export GOCOVERDIR=$$d/cov; \
	run() { "$$@" > $$d/log 2>&1 || { cat $$d/log; echo "reach: $$* failed" >&2; exit 1; }; }; \
	faults=seed=7,rate=0.01,disk.read=0.02; \
	run $$d/cmd/fig17disk -quick; \
	run $$d/cmd/fig17disk -quick -stats; \
	run $$d/cmd/fig17disk -quick -realtime -max-threads 256; \
	run $$d/cmd/fig17disk -quick -supervise -faults $$faults; \
	run $$d/cmd/fig18fifo -quick -max-idle 1000; \
	run $$d/cmd/fig19web -quick; \
	run $$d/cmd/fig19web -quick -cached; \
	run $$d/cmd/fig19web -quick -stats; \
	run $$d/cmd/fig19web -quick -realtime -max-conns 64; \
	run $$d/cmd/fig19web -quick -faults $$faults; \
	run $$d/cmd/fig19web -quick -overload -stats; \
	run $$d/cmd/fig20loss -quick; \
	run $$d/cmd/fig20loss -quick -trials 1; \
	run $$d/cmd/fig21adversarial -quick; \
	run $$d/cmd/fig22c1m -quick; \
	run $$d/cmd/fig22c1m -quick -det; \
	run $$d/cmd/memtest -threads 10000 -conns 1024 -budget 65536; \
	run $$d/cmd/tracedump -depth 8; \
	run $$d/cmd/webserver -files 256 -requests 256 -conns 16; \
	run $$d/cmd/webserver -files 256 -requests 256 -conns 16 -tcp -stats; \
	run $$d/cmd/webserver -files 256 -requests 512 -admit 32 -shed -stats -faults $$faults; \
	for e in $$d/ex/*; do run $$e; done; \
	run $$d/cmd/benchmark -quick -out $$d/out; \
	$(GO) tool covdata textfmt -i=$$d/cov -o $$d/profile; \
	$(GO) tool cover -func=$$d/profile | awk '$$NF == "0.0%" && \
		($$1 ~ /^hybrid\/internal\// || $$1 ~ /^hybrid\/hybrid\.go:/) { print $$1, $$2; n++ } \
		END { printf "reach: %d functions unreached\n", n }'
