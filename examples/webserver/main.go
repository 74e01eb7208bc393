// Static-file web server (the paper's §5.2 case study), scaled for a
// quick run: the hybrid server (monadic threads + epoll + AIO + cache)
// serves a fileset from the simulated disk to a multithreaded load
// generator, and the same run is repeated against the Apache-like
// thread-per-connection baseline for comparison.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"time"

	"hybrid/internal/bench"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/nptl"
)

const (
	files    = 2048
	fileSize = 16 * 1024
	cacheSz  = 8 << 20
	conns    = 64
	requests = 1024
)

// run serves one full workload and returns MB/s of virtual time.
func run(name string, useApache bool) float64 {
	spec := bench.Spec{
		Files: files, FileBytes: fileSize,
		Server: httpd.ServerConfig{CacheBytes: cacheSz},
	}
	var b *bench.Substrate
	if useApache {
		b = bench.NewSubstrate(spec)
		defer b.Close()
		nrt := nptl.New(b.K, b.FS, nptl.Config{StackTouch: -1})
		ap := httpd.NewApacheLike(nrt, b.K, b.FS, httpd.ApacheConfig{PageCacheBytes: cacheSz})
		if err := ap.ListenAndServe(bench.Addr); err != nil {
			panic(err)
		}
	} else {
		site := bench.NewSite(spec)
		defer site.Close()
		b = site.Substrate
	}

	gen := loadgen.New(b.IO, loadgen.Config{
		Addr: bench.Addr, Clients: conns, Files: files,
		RequestsPerClient: requests / conns, Seed: 7,
		RTT: 300 * time.Microsecond, Bandwidth: 100_000_000 / 8,
	})
	elapsed := b.Run(gen.Run())
	mbps := float64(gen.Bytes.Load()) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("%-22s %6d requests  %8v virtual  %.3f MB/s\n",
		name, gen.Requests.Load(), elapsed.Round(time.Millisecond), mbps)
	return mbps
}

func main() {
	fmt.Printf("disk-bound web workload: %d files × %d KB, %d MB cache, %d connections\n\n",
		files, fileSize/1024, cacheSz>>20, conns)
	h := run("hybrid server", false)
	a := run("apache-like baseline", true)
	fmt.Printf("\nhybrid/apache throughput ratio: %.2fx\n", h/a)
}
