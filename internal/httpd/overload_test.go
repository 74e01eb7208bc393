package httpd_test

import (
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/overload"
)

// Admission control: with MaxConns=2 and 16 eager clients, every request
// is eventually served, but never more than two connections at once — the
// rest wait in the kernel backlog instead of the server's queues.
func TestAdmissionBoundsInflightConns(t *testing.T) {
	s := newSite(t, 8, 2048)
	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes: 1 << 20,
		Overload:   &httpd.OverloadConfig{MaxConns: 2},
	})
	s.rt.Spawn(srv.ListenAndServe("web:80"))

	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 16, Files: 8, RequestsPerClient: 2, Seed: 7,
	})
	runAndWait(s.rt, gen.Run())

	if gen.Errors.Load() != 0 {
		t.Fatalf("client errors: %d", gen.Errors.Load())
	}
	if got := gen.Requests.Load(); got != 16*2 {
		t.Fatalf("requests = %d, want %d", got, 16*2)
	}
	lim := srv.Limiter()
	if lim == nil {
		t.Fatal("Limiter() nil with MaxConns set")
	}
	snap := lim.Metrics().Snapshot()
	if max := snap["inflight"].Max; max > 2 {
		t.Fatalf("inflight high-water %d exceeds MaxConns 2", max)
	}
	// One slot per connection, plus the accept loop's look-ahead slot for
	// the connection that never arrives.
	if snap.Counter("admitted") != 17 {
		t.Fatalf("admitted = %d, want 17 (16 conns + the loop's held slot)", snap.Counter("admitted"))
	}
}

// Load shedding: with the disk path always failing, the breaker trips
// after its failure threshold and later uncached GETs are shed with fast
// 503s — they never reach the disk, and the runtime stays clean.
func TestBreakerShedsFailingDiskPath(t *testing.T) {
	s := newSite(t, 8, 4096)
	in := faults.New(faults.Config{
		Seed:  11,
		Rates: map[faults.Op]float64{faults.DiskRead: 1.0},
	}, s.clk)
	s.fs.Disk().SetFaults(in)

	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes: 1, // force every GET through the disk path
		Overload: &httpd.OverloadConfig{
			// MaxConns serializes connections so that requests arriving
			// after the trip exist to be shed — without admission every
			// client would be in the disk path before the first failure
			// is even observed.
			MaxConns: 2,
			Breaker: &overload.BreakerConfig{
				FailureThreshold: 2,
				Cooldown:         time.Second, // beyond the workload's span
			},
		},
	})
	s.rt.Spawn(srv.ListenAndServe("web:80"))

	gen := loadgen.New(s.io, loadgen.Config{
		Addr: "web:80", Clients: 12, Files: 8, RequestsPerClient: 2, Seed: 11,
	})
	done := make(chan struct{})
	s.rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workload wedged under breaker shedding")
	}

	b := srv.Breaker()
	if b == nil {
		t.Fatal("Breaker() nil with Breaker config set")
	}
	bs := b.Metrics().Snapshot()
	if bs.Counter("breaker_trips") < 1 {
		t.Fatal("breaker never tripped with a 100% failing disk")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counter("shed_fast") == 0 {
		t.Fatal("no requests shed after the breaker tripped")
	}
	if gen.Statuses[5].Load() == 0 {
		t.Fatal("clients saw no 503s from shedding")
	}
	// Shedding happens before the disk: shed requests add no disk traffic.
	if snap.Counter("class_disk") <= snap.Counter("shed_fast") {
		t.Fatalf("class_disk=%d shed_fast=%d: shed requests must be a strict subset",
			snap.Counter("class_disk"), snap.Counter("shed_fast"))
	}
	// Every connection thread retires: only the accept loop stays parked.
	waitLiveOrFatal(t, s, 1)
}
