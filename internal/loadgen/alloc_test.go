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
// pump. It measures 60.4; 64.4 while each first park on a socket
// allocated a watch callback and grew its wait list's slice, 73.5 while
// the frames' exits allocated (a PopCatchNode each, and for the Finally
// its cleanup composition re-applied), and 104.1 with the loop rebuilt
// every session.
func TestAllocHorizonSession(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	const sessions, runs, maxPerSession = 64, 10, 63
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
