package loadgen

import (
	"errors"
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// TestAllocSessionDeadline pins a Horizon session's deadline at zero
// allocations per session: the owned timer is bound once per client, so
// arming it after a connect and disarming it at the session's end
// allocate nothing.
func TestAllocSessionDeadline(t *testing.T) {
	clk := vclock.NewVirtual()
	d := newSessionDeadline(kernel.New(clk), clk)
	const conn = kernel.FD(7)
	clk.Enter() // time stands still: the deadline never fires
	defer clk.Exit()
	if n := testing.AllocsPerRun(1000, func() {
		d.arm(conn, 250*time.Millisecond)
		if d.disarm() != conn {
			t.Fatal("disarm did not hand back the session's socket")
		}
	}); n != 0 {
		t.Fatalf("session deadline arm+stop allocates %v, want 0", n)
	}
}

// TestSessionDeadlineExpiry checks the deadline's state machine: expiry
// marks the session expired and closes its socket, so the session's own
// exit has nothing left to close.
func TestSessionDeadlineExpiry(t *testing.T) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	if _, err := k.Listen("x:1", 1); err != nil {
		t.Fatal(err)
	}
	conn, err := k.Connect("x:1")
	if err != nil {
		t.Fatal(err)
	}
	d := newSessionDeadline(k, clk)
	clk.Enter()
	d.arm(conn, time.Millisecond)
	if d.expired() {
		t.Fatal("expired before its deadline")
	}
	clk.Exit() // nothing holds the clock: the deadline fires
	if !d.expired() {
		t.Fatal("deadline passed and the session is not expired")
	}
	if _, err := k.Read(conn, nil); !errors.Is(err, kernel.ErrBadFD) {
		t.Fatalf("expired session's socket still open (%v)", err)
	}
	if fd := d.disarm(); fd != noSession {
		t.Fatalf("disarm after expiry handed back %d, want noSession", fd)
	}
	if d.expired() {
		t.Fatal("disarm left the expired mark for the next session")
	}
}

// TestAllocHorizonSession pins what one Horizon session allocates, its
// server's side included: a client runs one-request sessions against a
// cached httpd, one per millisecond of RTT, until the horizon. The
// session loop and its Finally/Catch frames are built once a client, so
// a session applies only what needs its socket: the connect, the request
// pump. It measures 49.2; 56.4 while each NBIO, NBIOe and Do application
// made a node and its effect closure and the pump's and the connection's
// nodes each bound a method value, 60.4 while heads were copied and the
// request cell regrown every session, 64.4 while each first park on a
// socket allocated a watch callback and grew its wait list's slice, 73.5
// while the frames' exits allocated (a PopCatchNode each, and for the
// Finally its cleanup composition re-applied), and 104.1 with the loop
// rebuilt every session.
func TestAllocHorizonSession(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	const sessions, runs, maxPerSession = 64, 10, 50
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	if err := MakeFileset(fs, 1, 1024); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)
	loop, err := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20}).BindAndServe("web:80")
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(loop)
	cfg := Config{
		Addr: "web:80", Clients: 1, Files: 1, Seed: 1, RTT: time.Millisecond,
		Horizon: sessions * time.Millisecond, SessionRequests: 1,
	}
	var gen *Generator
	done := make(chan struct{}, 1)
	total := testing.AllocsPerRun(runs, func() {
		gen = New(io, cfg)
		rt.Spawn(core.Then(gen.Run(), core.Do(func() { done <- struct{}{} })))
		<-done
	})
	if gen.Requests.Load() != sessions || gen.Errors.Load() != 0 {
		t.Fatalf("%d requests and %d errors in a run, want %d and 0", gen.Requests.Load(), gen.Errors.Load(), sessions)
	}
	if per := total / sessions; per > maxPerSession {
		t.Fatalf("a Horizon session allocates %.2f, want <= %d", per, maxPerSession)
	} else {
		t.Logf("a Horizon session allocates %.2f", per)
	}
}

// TestAllocKeepAliveRequest pins a steady-state keep-alive request at zero
// allocations end to end: a client of the pump against a cached httpd
// over kernel sockets, with latency measured and, in the second case, a
// modelled RTT whose Sleep the pump re-forces. A run's set-up (the
// connect and accept, the pump record, the traces applied once) is the
// same for a short and a long run, so what the longer run allocates
// beyond the shorter is what its extra requests cost. That reads one
// allocation whatever the extra count, a one-off and not a per-request
// cost, so the bound is a hundredth of an allocation per request. The
// server's side of a cached GET is pinned at zero by internal/bench's
// TestServeCachedAllocBudget, so this is the client's. It read 2 while
// heads were copied out of their buffers: the request head on the
// server, the response head in the pump.
func TestAllocKeepAliveRequest(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, rtt := range []time.Duration{0, time.Millisecond} {
		clk := vclock.NewVirtual()
		k := kernel.New(clk)
		fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
		if err := MakeFileset(fs, 4, 16<<10); err != nil {
			t.Fatal(err)
		}
		rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
		io := hio.New(rt, k, fs)
		loop, err := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20}).BindAndServe("web:80")
		if err != nil {
			t.Fatal(err)
		}
		rt.Spawn(loop)
		done := make(chan struct{}, 1)
		perRun := func(requests int) float64 {
			cfg := Config{
				Addr: "web:80", Clients: 1, Files: 4, Seed: 1, RTT: rtt,
				RequestsPerClient: requests, MeasureLatency: true,
			}
			return testing.AllocsPerRun(10, func() {
				gen := New(io, cfg)
				rt.Spawn(core.Then(gen.Run(), core.Do(func() {
					if gen.Requests.Load() != uint64(requests) || gen.Errors.Load() != 0 {
						t.Errorf("%d requests and %d errors, want %d and 0", gen.Requests.Load(), gen.Errors.Load(), requests)
					}
					done <- struct{}{}
				})))
				<-done
			})
		}
		const short, extra = 16, 1024
		perRun(short + extra) // fills the cache: every later GET hits
		if per := (perRun(short+extra) - perRun(short)) / extra; per >= 0.01 {
			t.Errorf("RTT %v: a keep-alive request allocates %.3f, want 0", rtt, per)
		}
		rt.Shutdown()
	}
}
