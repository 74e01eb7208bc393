package httpd_test

import (
	"bytes"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
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
	s.serve(t, srv)

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
	s.serve(t, srv)

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

// A degraded 503 is a breaker failure (ROADMAP 10a): with DiskRetries
// armed a dead file is answered without raising, and booked as a success
// it could never open the breaker — which is the configuration every CLI
// that injects faults runs. FailureThreshold dead-file GETs must trip it,
// one observation each, and the next uncached GET is shed before the disk.
func TestDegraded503OpensBreaker(t *testing.T) {
	const threshold = 3
	s := newSite(t, 8, 4096)
	s.fs.Disk().SetFaults(faults.New(faults.Config{
		Seed:  11,
		Rates: map[faults.Op]float64{faults.DiskRead: 1.0},
	}, s.clk))
	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes:  1, // force every GET through the disk path
		DiskRetries: 2,
		Overload: &httpd.OverloadConfig{Breaker: &overload.BreakerConfig{
			FailureThreshold: threshold,
			Cooldown:         time.Hour, // beyond the test's span
		}},
	})
	s.serve(t, srv)

	// The degraded 503 closes its connection, so each GET dials afresh and
	// asks for the same of the fast 503.
	get := func(out *[]byte) core.M[core.Unit] {
		return core.Bind(s.io.SockConnect("web:80"), func(fd kernel.FD) core.M[core.Unit] {
			return core.Seq(
				core.Then(s.io.SockSend(fd, []byte("GET /file-0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")), core.Skip),
				readUntilClosed(s.io, fd, out),
				s.io.CloseFD(fd),
			)
		})
	}
	var dead, shed []byte
	runAndWait(s.rt, core.ForN(threshold, func(int) core.M[core.Unit] { return get(&dead) }))

	snap, bs := srv.Metrics().Snapshot(), srv.Breaker().Metrics().Snapshot()
	if got := snap.Counter("resp_503"); got != threshold {
		t.Fatalf("resp_503 = %d after %d dead-file GETs", got, threshold)
	}
	if got := bs.Counter("breaker_trips"); got != 1 {
		t.Fatalf("breaker_trips = %d after %d degraded 503s, want 1 (a degraded 503 must count as one failure)",
			got, threshold)
	}
	if got := snap.Counter("shed_fast"); got != 0 {
		t.Fatalf("shed_fast = %d before the breaker opened", got)
	}
	if got := snap.Counter("errors"); got != 0 {
		t.Fatalf("errors = %d: a degraded 503 ends its connection cleanly", got)
	}

	reads := s.fs.Disk().Snapshot().Requests
	runAndWait(s.rt, get(&shed))
	if got := srv.Metrics().Snapshot().Counter("shed_fast"); got != 1 {
		t.Fatalf("shed_fast = %d, want the next uncached GET shed by the open breaker", got)
	}
	if !bytes.HasPrefix(shed, []byte("HTTP/1.1 503 ")) {
		t.Fatalf("shed response = %q", shed)
	}
	if got := s.fs.Disk().Snapshot().Requests; got != reads {
		t.Fatalf("shed GET reached the disk: %d requests, was %d", got, reads)
	}
	waitLiveOrFatal(t, s, 1)
}
