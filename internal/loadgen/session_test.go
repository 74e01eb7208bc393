package loadgen_test

import (
	"sync"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// muteServer listens at addr and accepts every connection without ever
// reading from it or answering, from one thread. It returns the accepted
// server ends, for the test to count and close.
func muteServer(t *testing.T, rt *core.Runtime, io *hio.IO, addr string) func() []kernel.FD {
	t.Helper()
	lfd, err := io.Kernel().Listen(addr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var accepted []kernel.FD
	rt.Spawn(core.Forever(core.Bind(io.SockAccept(lfd), func(fd kernel.FD) core.M[core.Unit] {
		return core.Do(func() {
			mu.Lock()
			accepted = append(accepted, fd)
			mu.Unlock()
		})
	})))
	return func() []kernel.FD {
		mu.Lock()
		defer mu.Unlock()
		return append([]kernel.FD(nil), accepted...)
	}
}

// runSessions drives a Horizon generator against a mute server and
// returns it with the number of sessions the server accepted and the
// threads spawned by the run. It checks that every client socket is
// closed once the run returns.
func runSessions(t *testing.T, clk vclock.Clock, cfg loadgen.Config) (*loadgen.Generator, int, uint64) {
	t.Helper()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)
	accepted := muteServer(t, rt, io, cfg.Addr)
	baseline := k.OpenFDs()
	spawned := uint64(rt.Stats().Snapshot().Counter("spawned"))

	gen := loadgen.New(io, cfg)
	done := make(chan struct{})
	rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	<-done
	spawned = uint64(rt.Stats().Snapshot().Counter("spawned")) - spawned

	// Only the server ends the mute server accepted are still open.
	ends := accepted()
	if got, want := k.OpenFDs(), baseline+len(ends); got != want {
		t.Fatalf("%d descriptors open after the run, want %d (the %d accepted server ends): a session socket leaked",
			got, want, len(ends))
	}
	for _, fd := range ends {
		if err := k.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.OpenFDs(); got != baseline {
		t.Fatalf("%d descriptors open, want the baseline %d", got, baseline)
	}
	if gen.Requests.Load() != 0 {
		t.Fatalf("a mute server completed %d requests", gen.Requests.Load())
	}
	return gen, len(ends), spawned
}

// TestSessionDeadlineShedsSilentServer pins the Horizon session deadline
// on virtual time: against a server that accepts and never answers, each
// session fails exactly once, exactly sto after its connect, with its
// socket closed, and no thread is forked for the deadline.
func TestSessionDeadlineShedsSilentServer(t *testing.T) {
	const (
		clients = 3
		sto     = 10 * time.Millisecond
		backoff = time.Millisecond
		horizon = 100 * time.Millisecond
	)
	clk := vclock.NewVirtual()
	gen, sessions, spawned := runSessions(t, clk, loadgen.Config{
		Addr: "mute:80", Clients: clients, Files: 1, Seed: 1,
		Horizon: horizon, SessionRequests: 1, SessionTimeout: sto, ConnectBackoff: backoff,
	})
	// A session connects at k·(sto+backoff) while that is before the
	// horizon, fails at +sto, and backs off: ten sessions a client, and
	// the run ends when the last backoff does.
	per := int((horizon + sto + backoff - 1) / (sto + backoff))
	if sessions != clients*per {
		t.Fatalf("server accepted %d sessions, want %d", sessions, clients*per)
	}
	if got := gen.Errors.Load(); got != uint64(clients*per) {
		t.Fatalf("errors = %d, want one per session (%d)", got, clients*per)
	}
	if got, want := time.Duration(clk.Now()), time.Duration(per)*(sto+backoff); got != want {
		t.Fatalf("run ended at %v, want %v: a session did not fail exactly sto after its connect", got, want)
	}
	// The root thread and one per client; the deadline forks nothing.
	if spawned != clients+1 {
		t.Fatalf("%d threads spawned for %d sessions, want %d", spawned, sessions, clients+1)
	}
}

// TestSessionDeadlineShedsSilentServerRealClock runs the same session
// deadline on wall-clock time, where its expiry runs on a host timer
// goroutine while the session's thread runs on the worker.
func TestSessionDeadlineShedsSilentServerRealClock(t *testing.T) {
	const (
		clients = 4
		sto     = 5 * time.Millisecond
		backoff = time.Millisecond
		horizon = 40 * time.Millisecond
	)
	gen, sessions, spawned := runSessions(t, vclock.NewReal(), loadgen.Config{
		Addr: "mute:80", Clients: clients, Files: 1, Seed: 1,
		Horizon: horizon, SessionRequests: 1, SessionTimeout: sto, ConnectBackoff: backoff,
	})
	if sessions < clients {
		t.Fatalf("server accepted %d sessions, want at least one a client", sessions)
	}
	if got := gen.Errors.Load(); got != uint64(sessions) {
		t.Fatalf("errors = %d, want one per session (%d)", got, sessions)
	}
	// A session lasts at least sto, so a client fits no more than
	// horizon/sto + 1 of them.
	if most := clients * int(horizon/sto+1); sessions > most {
		t.Fatalf("%d sessions in %v, want at most %d: a deadline fired early", sessions, horizon, most)
	}
	if spawned != clients+1 {
		t.Fatalf("%d threads spawned for %d sessions, want %d", spawned, sessions, clients+1)
	}
}

// TestHorizonConnectRefused pins the Horizon loop's refused-connect path:
// with no listener every connect fails at once, so a client counts one
// error and backs off per backoff until the horizon — ceil(horizon /
// backoff) errors — leaves no descriptor behind, and the run ends when
// its last backoff does.
func TestHorizonConnectRefused(t *testing.T) {
	const (
		clients = 3
		backoff = 3 * time.Millisecond
		horizon = 100 * time.Millisecond
	)
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)
	baseline := k.OpenFDs()
	gen := loadgen.New(io, loadgen.Config{
		Addr: "nobody:80", Clients: clients, Files: 1, Seed: 1,
		Horizon: horizon, SessionRequests: 1, ConnectBackoff: backoff,
	})
	done := make(chan struct{})
	rt.Spawn(core.Then(gen.Run(), core.Do(func() { close(done) })))
	<-done
	per := int((horizon + backoff - 1) / backoff)
	if got := gen.Errors.Load(); got != uint64(clients*per) {
		t.Fatalf("errors = %d, want %d (%d a client)", got, clients*per, per)
	}
	if gen.Requests.Load() != 0 {
		t.Fatalf("%d requests without a listener", gen.Requests.Load())
	}
	if got := k.OpenFDs(); got != baseline {
		t.Fatalf("%d descriptors open after the run, want the baseline %d", got, baseline)
	}
	if got, want := time.Duration(clk.Now()), time.Duration(per)*backoff; got != want {
		t.Fatalf("run ended at %v, want %v", got, want)
	}
}
