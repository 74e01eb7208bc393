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
# descriptor ready, and the request pump's retained Sleep. vclock holds
# the owned timers, real-clock arms re-armed from their own callbacks.
# tcp and netsim hold no lock: their one owner is the virtual clock's
# event context, and their tests run the stacks on a runtime's worker
# while the host goroutine takes clock holds and reads the atomic counts
# (registry counters, the tcp conns gauge, Network.Stats); netsim also
# recycles packet records through a sync.Pool. stats,
# disk and faults hold registry counters incremented on the hot path and
# read by snapshots with no subsystem lock: the disk counts under its
# queue lock, its snapshot reads without it. overload's admission Limiter
# parks acceptors through Suspend, and its tests release them from the
# host goroutine.
race:
	$(GO) test -race . ./internal/core/... ./internal/stm/... \
		./internal/tcp/ ./internal/httpd/ ./internal/bufpool/ \
		./internal/kernel/ ./internal/hio/ ./internal/loadgen/ \
		./internal/netsim/ ./internal/vclock/ \
		./internal/disk/ ./internal/faults/ ./internal/stats/ \
		./internal/overload/

# race-smp repeats the race leg with GOMAXPROCS pinned to 4 so parallel
# dispatch (N workers on the shared ready queue of a real clock, the
# sharded kernel, readiness callbacks run on whichever goroutine made a
# descriptor ready — an NPTL thread's wake included — and host Enter/Exit
# waking a virtual clock's worker) is exercised with real preemption
# interleavings even on wide CI machines. The bench package is included:
# its determinism tests assert reproducibility under real parallelism
# rather than assuming a single-P schedule, and its TCP site's drain
# polls the lock-free stacks' conns gauges from the host goroutine while
# the worker runs their FIN exchange and TIME_WAIT. So is tcp, whose unit
# tests run as monadic threads on one worker and so read the same counts
# whatever the host schedules. loadgen and httpd park their clients and
# connections on reusable wait records woken from other goroutines, and
# netsim, which has no lock, recycles its packet records through a
# sync.Pool.
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
# move a single byte of the figure output, the baseline columns included:
# the NPTL baseline's kernel threads take turns on the same event loop.
# One fig19 pair runs under a fault plan, because only a faulted disk
# takes the server's retries and 503s; -stats stays off there, since
# kernel.segment_misses follows GC timing. examples/p2p closes the list:
# 64 application-level TCP stacks gossiping over a lossy network
# (ConnectM, WriteVM, ReadFullM, retransmissions), so its bytes hold the
# tcp send side end to end.
DET_FAULTS = seed=7,rate=0.01,disk.read=0.02,disk.hard=0.001

determinism:
	GOMAXPROCS=4 $(GO) run ./cmd/fig17disk -quick > det_fig17_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig17disk -quick > det_fig17_b.tmp
	cmp det_fig17_a.tmp det_fig17_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick > det_fig19_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick > det_fig19_b.tmp
	cmp det_fig19_a.tmp det_fig19_b.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick -faults $(DET_FAULTS) > det_fig19f_a.tmp
	GOMAXPROCS=4 $(GO) run ./cmd/fig19web -quick -faults $(DET_FAULTS) > det_fig19f_b.tmp
	cmp det_fig19f_a.tmp det_fig19f_b.tmp
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
	GOMAXPROCS=4 $(GO) run ./examples/p2p > det_p2p_a.tmp
	GOMAXPROCS=4 $(GO) run ./examples/p2p > det_p2p_b.tmp
	cmp det_p2p_a.tmp det_p2p_b.tmp
	rm -f det_fig17_a.tmp det_fig17_b.tmp det_fig19_a.tmp det_fig19_b.tmp \
		det_fig19f_a.tmp det_fig19f_b.tmp \
		det_fig20_a.tmp det_fig20_b.tmp det_fig21_a.tmp det_fig21_b.tmp \
		det_fig22_a.tmp det_fig22_b.tmp det_web_a.tmp det_web_b.tmp \
		det_webtcp_a.tmp det_webtcp_b.tmp det_p2p_a.tmp det_p2p_b.tmp
	@echo "determinism: fig17/fig19 (plain and faulted)/fig20/fig21/fig22, cmd/webserver (sockets, -tcp) and examples/p2p output byte-identical across GOMAXPROCS=4 runs"

# figures-check gates the figure bytes themselves: the four deterministic
# figure CLIs, baseline columns included, run at full size (about 45 s
# together) and each output must
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

# mem-budget is the blocking memory gate, per connection and per thread.
# It establishes 16384 parked keep-alive connections and fails if live
# heap per connection exceeds 6648 bytes. The measured figure is
# 6,103.3 B (4 KB of it the handler's pooled read buffer; 6,311.3 before
# each I/O primitive's application became one record, 6,223.3 before
# each park record became its own arm, 6,199.3 before the kernel's wait
# lists linked the park records' waiters, 6,167.3 while a parked
# connection's request pinned a heap copy of its head), so the gate has
# ~545 bytes of slack: a change that re-eagers buffer allocation —
# the old flat rings cost 137.7 KB/conn — fails here, and so does one
# that parks a few hundred bytes of per-request state on every
# connection (pre-applying the serve loop's write traces naively cost
# +940 B/conn, which a 9216 budget let through; the overload wrapper's
# registry entry and Ensure frame cost +221 B/conn, which the 7168
# budget hid). It then parks a million monadic threads (the paper's §5.1
# experiment) and fails if the printed bytes/thread exceeds 201: the
# measured figure is 186.1 B (217.1 while Suspend's record armed itself
# through a closure), and a second per-thread stack in the TCB (250 B
# before the cleanup stack was folded into the frame stack) fails.
mem-budget:
	$(GO) run ./cmd/memtest -threads 1000 -conns 16384 -budget 6648
	$(GO) run ./cmd/memtest -threads 1000000 | awk '{ print } $$1 == 1000000 { b = $$2 } \
		END { if (b == "" || b + 0 > 201) { printf "FAIL: %s B/thread exceeds budget 201 B/thread\n", b; exit 1 } \
		printf "OK: %s B/thread within budget 201 B/thread\n", b }'

# core-alloc is the blocking fast-path allocation gate: AllocsPerRun pins
# only, no timing, so it cannot flake on machine speed. It holds the
# continuation-flattening line — fused Loop/ForN/RepeatN iterations at
# zero allocations, the cached-GET serve loop at zero allocations and
# zero bytes per request (TestServeCachedAllocBudget; 1 and 64 B while
# the request head was copied out of its buffer) — so a change that
# quietly re-introduces per-iteration closure or node allocation fails
# here, not in the next perf investigation. Heads are views of the
# buffer they arrived in: a steady-state Feed is pinned at zero
# (TestHeadBufferSteadyStateAllocs), and so is a keep-alive request
# through the load generator's pump against the cached server, client
# and server together (TestAllocKeepAliveRequest; 2 while both heads
# were copied). A cache-missing GET is pinned too, at 8 (5.8 measured,
# its fill's buffer and entry record included; 47.5 while every miss
# re-applied its combinator chain, 48.5 with the head copied): a
# connection builds its miss record at its first miss and re-enters it,
# so a miss applies its body write alone. In a full cache, where each
# miss evicts an entry the cache filled and no Get returned, a miss
# reads into the evicted body and allocates at most 4 objects and 512
# bytes (TestAllocDiskMissRecycles, 3.8 and 132 B measured, connection
# set-up included; 1.7 KB while the miss path re-applied its chain, 18 KB
# while every fill made its own 16 KB buffer). Below it a retained Blio
# re-forced on a virtual clock (TestAllocBlioReplay) and a retained cell
# AIO read re-forced across files and offsets (TestAllocAIOReadReplay)
# allocate nothing, and FS.AIORead's callback form, the benchmark's
# kernel.aio_read probe, stays at its 3 objects per read
# (TestAllocAIOReadCallback). The
# hio pins hold the I/O wrappers to it: core.Poll replayed at zero per
# attempt and per message, a read that parks on every message at zero
# (its record's one embedded wait record, linked by value), every ported
# primitive's application at its one record (TestAllocApplyPrimitive in
# hio and tcp: each M applied once, built directly and through a
# //go:noinline wrapper, the two equal; an AIO call too, since every
# park record is its own arm), a read applied and parked once at its
# record alone, which holds the waiter the kernel's wait list or the TCP
# ready hook links (TestAllocFirstPark in hio and tcp, 1 measured; 2
# while the first park bound a watch or hook callback), a Sleep application at its record and a Suspend applied and
# parked once at its record and resume, every hio read and send pair
# applied once and forced per message at zero per message and per park
# (TestAllocReplayPrimitive),
# the generic SockSend/SockRead ping-pong at what its re-applied wrappers
# cost when spelled with Then and at most 1 per trip (0 measured) when
# spelled with Seq, which applies both once (TestAllocSockPingPong), the
# frame records — Catch, Ensure, Finally and OnException in a cached
# RepeatN body — at zero per round after the first, their exits by value
# and by exception included (TestAllocFrameReplay), a re-forced Sleep at
# zero, a virtual-clock Blio applied and run at its node, effect record and
# owned timer, and the client's response-head parse at zero. Below the
# runtime the simulator's per-event costs are pinned the same way: an
# owned clock timer's arm at zero, a pooled netsim datagram handed over
# and returned at zero, a TCP segment encode/decode and an RTO re-arm at
# zero, and a TCP read that parks once per segment at zero, its datagrams
# counted. A TCP send applied once and forced message after message
# (TestAllocResentMessage: WriteM, which copies, and WriteCellVM and
# WriteVM, which lend) holds each to its per-message count: WriteM's copy,
# and nothing for the send buffer, whose segment list is appended and cut
# in place. Both deadlines that ride owned timers are pinned at zero per
# arm: a connection's lifecycle re-arm cycle, and a load-generator
# session's deadline arm and stop. A whole Horizon session, its server's
# side included, is pinned at its per-session budget
# (TestAllocHorizonSession, at most 50, 49.2 measured): the session loop
# is a While built once a client, its frames' exits allocate nothing, its
# parks link their records' waiters and its request cell lives beside
# the client's head buffer, so a change that rebuilds it every session,
# makes an exit allocate again (73.5), a first park allocate a callback
# again (64.4), copies heads and regrows the request cell every session
# again (60.4), or gives an NBIO node an effect closure again (56.4),
# fails here. An NBIO, NBIOe or Do application is pinned at its one
# record, built directly and through a //go:noinline wrapper
# (TestAllocNBIOApply; 2 while each made a node and its effect closure).
# An Ensure applied and run is pinned
# at the four allocations of its closure, CatchNode, record and
# continuation. A lent 16 KB socket send
# (kernel WriteRef, the cache-hit path) drained by two reads is pinned at
# zero allocations and zero ring segments drawn, and a response-shaped
# stream (a copied head, a lent 16 KB body) drained the load generator's
# way — one 4 KB read, one kernel Discard of the rest — at zero
# allocations and no segment beyond the head's (TestAllocSockDiscard).
# The first watch on a fresh pipe and the hang-up that fires it are
# pinned at zero (TestAllocFirstWatch; 1 while the wait list was a slice
# grown at the first registration).
core-alloc:
	$(GO) test -run 'Alloc' -count=1 ./internal/core/ ./internal/hio/ ./internal/bench/ ./internal/httpd/ \
		./internal/tcp/ ./internal/netsim/ ./internal/vclock/ ./internal/loadgen/ ./internal/kernel/

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
	$(GO) test -run FuzzHeadBuffer -fuzz 'FuzzHeadBuffer$$' -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzHeadBufferModel -fuzz FuzzHeadBufferModel -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzParseResponseHead -fuzz FuzzParseResponseHead -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzVecModel -fuzz FuzzVecModel -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzVecSliceBounds -fuzz FuzzVecSliceBounds -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzQueueModel -fuzz FuzzQueueModel -fuzztime 5s ./internal/iovec/
	$(GO) test -run FuzzServeLattice -fuzz FuzzServeLattice -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzCacheRecycle -fuzz FuzzCacheRecycle -fuzztime 5s ./internal/httpd/
	$(GO) test -run FuzzBufpoolRoundtrip -fuzz FuzzBufpoolRoundtrip -fuzztime 5s ./internal/bufpool/
	$(GO) test -run FuzzSackRanges -fuzz FuzzSackRanges -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzSegmentRoundtrip -fuzz FuzzSegmentRoundtrip -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzChecksumMatchesNaive -fuzz FuzzChecksumMatchesNaive -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzReassemblyModel -fuzz FuzzReassemblyModel -fuzztime 5s ./internal/tcp/
	$(GO) test -run FuzzFillPattern -fuzz FuzzFillPattern -fuzztime 5s ./internal/kernel/
	$(GO) test -run FuzzFusedEquivalence -fuzz FuzzFusedEquivalence -fuzztime 5s ./internal/core/
	$(GO) test -run FuzzFrameModel -fuzz FuzzFrameModel -fuzztime 5s ./internal/core/
	$(GO) test -run FuzzBlockingPrimitives -fuzz FuzzBlockingPrimitives -fuzztime 5s ./internal/core/
	$(GO) test -run FuzzWaitListModel -fuzz FuzzWaitListModel -fuzztime 5s ./internal/waitq/

# loc regenerates the LOC table in EXPERIMENTS.md (between the loc:begin
# and loc:end markers) from wc -l, so the server and scheduler sizes set
# against the paper's 370 and 220 lines, and the size of the whole program
# (tracked non-test Go outside benchmark/), are counted, not remembered.
# CI runs it and fails if the committed table differs.
loc:
	@awk -v server="$$(wc -l < internal/httpd/server.go)" \
		-v sched="$$(cat internal/core/runtime.go internal/core/queue.go | wc -l)" \
		-v program="$$(git ls-files '*.go' ':!:*_test.go' ':!:benchmark/' | xargs cat | wc -l)" ' \
		/<!-- loc:end/ { skip = 0 } \
		!skip { print } \
		/<!-- loc:begin/ { skip = 1; \
			print "| component | paper | this repo | files counted |"; \
			print "|---|---:|---:|---|"; \
			printf "| web server | 370 | %d | `internal/httpd/server.go` |\n", server; \
			printf "| scheduler | 220 | %d | `internal/core/runtime.go` + `queue.go` |\n", sched; \
			printf "| whole program | — | %d | non-test Go outside `benchmark/` |\n", program }' \
		EXPERIMENTS.md > EXPERIMENTS.md.tmp
	@mv EXPERIMENTS.md.tmp EXPERIMENTS.md

# reach is the reachability audit (advisory; DESIGN.md "Reachability"):
# every CLI, every example and the benchmark are built with coverage over
# the whole module, run through the fixed invocation list below — each
# figure CLI at -quick under each of its flags, cmd/webserver on both
# transports and with admission, shedding and faults, the benchmark's four
# workloads — and every non-test function under internal/ or in hybrid.go
# that none of that traffic entered is printed. Tests are deliberately not
# counted. A function that only tests or nothing references is the tier-1
# gate's business (TestFunctionsReferencedOutsideTests); this audit stays
# advisory, for the unreached arms a static check cannot see — code that
# live code references but no traffic enters — each listed with its
# reason in DESIGN.md's table, which is checked against this output by
# hand. The last line counts them, so a document quotes the number the
# audit prints.
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
	run $$d/cmd/fig17disk -quick -supervise -faults $$faults; \
	run $$d/cmd/fig18fifo -quick -max-idle 1000; \
	run $$d/cmd/fig19web -quick; \
	run $$d/cmd/fig19web -quick -cached; \
	run $$d/cmd/fig19web -quick -stats; \
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
