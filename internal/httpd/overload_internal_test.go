package httpd

import (
	"testing"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// poisonTransport panics at effect time on the first read — a handler
// bug surfacing mid-connection.
type poisonTransport struct{}

func (poisonTransport) Read(p []byte) core.M[int] {
	return core.NBIO(func() int { panic("poisoned handler") })
}
func (poisonTransport) Write(p []byte) core.M[int]      { return core.Return(len(p)) }
func (poisonTransport) WriteCell(c *[]byte) core.M[int] { return core.Return(len(*c)) }
func (poisonTransport) Close() core.M[core.Unit]        { return core.Skip }

// A supervised connection whose handler panics is an accounted, isolated
// event: the admission slot is released, the connection table entry is
// removed, conn_panics counts it, and nothing reaches the runtime's
// uncaught-error path.
func TestSupervisedConnPanicIsIsolatedAndReleasesSlot(t *testing.T) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk, TrapPanics: true})
	io := hio.New(rt, k, fs)
	defer func() {
		io.Close()
		rt.Shutdown()
	}()

	cfg := &OverloadConfig{MaxConns: 1, SuperviseConns: true}
	srv := NewServer(io, ServerConfig{Overload: cfg})
	// The server copied the config: a caller reusing its struct must not
	// switch supervision off under a live server.
	*cfg = OverloadConfig{}
	if !srv.ovl.limiter.TryAcquire() {
		t.Fatal("could not take the admission slot the accept loop would hold")
	}
	rt.Run(srv.serveAdmitted(poisonTransport{}))

	if got := srv.ovl.limiter.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after panicked connection, want 0 (leaked slot)", got)
	}
	srv.ovl.mu.Lock()
	tracked := len(srv.ovl.conns)
	srv.ovl.mu.Unlock()
	if tracked != 0 {
		t.Fatalf("connection table holds %d entries after panic, want 0", tracked)
	}
	if got := srv.connPanics.Load(); got != 1 {
		t.Fatalf("conn_panics = %d, want 1", got)
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("supervised panic leaked as uncaught: %v", errs)
	}
	if busy := clk.Busy(); busy != 0 {
		t.Fatalf("vclock busy = %d, want 0", busy)
	}
}
