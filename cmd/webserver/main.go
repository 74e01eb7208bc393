// webserver runs the paper's case-study web server (§5.2) on the
// simulated stack and drives it with the load generator, printing a
// summary — a self-contained demonstration of the whole system: monadic
// threads, epoll and AIO event loops, the disk elevator, the cache, and
// the client workload. With -tcp the server is re-plugged onto the
// application-level TCP stack (the paper's one-line transport switch).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"hybrid/internal/bench"
	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/overload"
)

func main() {
	files := flag.Int("files", 4096, "fileset size")
	fileKB := flag.Int("file-kb", 16, "file size in KB")
	cacheMB := flag.Int64("cache-mb", 100, "server cache in MB")
	conns := flag.Int("conns", 128, "concurrent client connections")
	requests := flag.Int("requests", 4096, "total requests")
	useTCP := flag.Bool("tcp", false, "serve over the application-level TCP stack")
	emitStats := flag.Bool("stats", false, "dump the merged metrics snapshot as JSON")
	faultSpec := flag.String("faults", "",
		"deterministic fault plan: seed=N,rate=R[,<op>=R,oneshot:<op>=K]; empty disables")
	admit := flag.Int("admit", 0,
		"admission control: bound on in-flight connections (0 disables the overload machinery)")
	shed := flag.Bool("shed", false,
		"arm a circuit breaker on the disk path: uncached GETs shed with fast 503s while it is open (requires -admit)")
	flag.Parse()

	fcfg, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webserver:", err)
		os.Exit(2)
	}
	scfg := httpd.ServerConfig{CacheBytes: *cacheMB << 20}
	if *admit > 0 {
		ocfg := &httpd.OverloadConfig{MaxConns: *admit}
		if *shed {
			ocfg.Breaker = &overload.BreakerConfig{
				FailureThreshold: 5,
				Cooldown:         10 * time.Millisecond,
			}
		}
		scfg.Overload = ocfg
	} else if *shed {
		fmt.Fprintln(os.Stderr, "webserver: -shed requires -admit")
		os.Exit(2)
	}
	site := bench.NewSite(bench.Spec{
		Files: *files, FileBytes: int64(*fileKB) * 1024,
		Server: scfg, Faults: fcfg, TCP: *useTCP,
	})
	defer site.Close()

	per := max(1, *requests / *conns)
	var served, bytes, errors uint64
	var elapsed time.Duration
	if *useTCP {
		// One-line transport switch: the same server over TCP/netsim,
		// driven by monadic clients speaking HTTP over the same stack.
		var l tcpLoad
		elapsed = site.Run(l.run(site, *files, *conns, per))
		served, bytes, errors = l.served.Load(), l.bytes.Load(), l.errors.Load()
	} else {
		gen := loadgen.New(site.IO, loadgen.Config{
			Addr: bench.Addr, Clients: *conns, Files: *files, RequestsPerClient: per,
			Seed: 1, RTT: 300 * time.Microsecond, Bandwidth: 100_000_000 / 8,
		})
		elapsed = site.Run(gen.Run())
		served, bytes, errors = gen.Requests.Load(), gen.Bytes.Load(), gen.Errors.Load()
	}
	// Drain before reading counters: when Run returns, handler threads (and
	// over TCP the FIN exchange) are still winding down.
	site.Drain()
	snap := site.Snapshot()
	mb := float64(bytes) / (1 << 20)

	if *useTCP {
		fmt.Println("transport:       application-level TCP over simulated Ethernet")
		fmt.Printf("requests:        %d (errors %d)\n", served, errors)
		fmt.Printf("bytes served:    %.1f MB in %v virtual = %.3f MB/s\n",
			mb, elapsed.Round(time.Millisecond), mb/elapsed.Seconds())
		fmt.Printf("tcp (server):    %d segs out, %d retransmits, %d conns\n",
			snap.Counter("tcp.segs_out"),
			snap.Counter("tcp.retransmits")+snap.Counter("tcp.fast_retransmits"),
			snap.Counter("tcp.conns_opened"))
	} else {
		hits, misses, _ := site.Srv.Cache().Stats()
		fmt.Printf("requests:        %d (errors %d)\n", served, errors)
		fmt.Printf("bytes served:    %.1f MB\n", mb)
		fmt.Printf("virtual elapsed: %v\n", elapsed)
		fmt.Printf("throughput:      %.3f MB/s\n", mb/elapsed.Seconds())
		fmt.Printf("cache:           %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
		fmt.Printf("disk:            %d requests, mean queue %.1f, head moved %d blocks\n",
			snap.Counter("disk.requests"), snap["disk.queue_depth"].Mean, snap["disk.seek_blocks"].Sum)
		if *admit > 0 {
			fmt.Printf("overload:        admitted %d (high-water %d/%d), shed %d, backlog rejects %d\n",
				snap.Counter("admission.admitted"), snap["admission.inflight"].Max, *admit,
				snap.Counter("httpd.shed_fast"), snap.Counter("kernel.backlog_rejects"))
		}
	}
	if site.Faults != nil {
		fmt.Printf("%s\n", site.Faults.Summary())
	}
	if *emitStats {
		// The buffer pools are the process's, not the site's.
		snap.Merge("bufpool", bufpool.Metrics().Snapshot())
		fmt.Println()
		if err := snap.WriteJSON(os.Stdout); err != nil {
			panic(err)
		}
	}
}

// tcpLoad is the -tcp workload: conns keep-alive clients over the
// application-level stack, per random GETs each, every response drained
// exactly. The clients fork from one root thread, so their launch order
// does not depend on how the host's spawns interleave with the worker.
type tcpLoad struct {
	served, bytes, errors atomic.Uint64
}

func (l *tcpLoad) run(site *bench.Site, files, conns, per int) core.M[core.Unit] {
	wg := core.NewWaitGroup(conns)
	client := func(ci int) core.M[core.Unit] {
		rng := uint64(ci)*0x9E3779B97F4A7C15 + 7
		buf := make([]byte, 8192)
		session := core.Bind(site.Dial(), func(t httpd.Transport) core.M[core.Unit] {
			return core.Seq(
				core.ForN(per, func(int) core.M[core.Unit] {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					name := loadgen.FileName(int(rng % uint64(files)))
					req := []byte("GET /" + name + " HTTP/1.1\r\nHost: s\r\n\r\n")
					return core.Bind(bench.Get(t, req, buf), func(n int64) core.M[core.Unit] {
						l.served.Add(1)
						l.bytes.Add(uint64(n))
						return core.Skip
					})
				}),
				t.Close(),
			)
		})
		return core.Finally(
			core.Catch(session, func(error) core.M[core.Unit] {
				l.errors.Add(1)
				return core.Skip
			}),
			wg.Done(),
		)
	}
	return core.Then(
		core.ForN(conns, func(ci int) core.M[core.Unit] { return core.Fork(client(ci)) }),
		wg.Wait(),
	)
}
