package httpd

import (
	"errors"
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

// A connection whose handler panics still gives its admission slot back:
// with MaxConns 1 the accept loop can only take the second connection
// once the first, poisoned one has released, and after the listener fails
// the look-ahead slot is returned too. The panic is an I/O error to the
// server (counted, transport closed), never an uncaught one.
func TestPanickedConnReleasesAdmissionSlot(t *testing.T) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk, TrapPanics: true})
	io := hio.New(rt, k, fs)
	defer rt.Shutdown()

	cfg := &OverloadConfig{MaxConns: 1}
	srv := NewServer(io, ServerConfig{Overload: cfg})
	// The server copied the config: a caller reusing its struct must not
	// switch admission off under a live server.
	*cfg = OverloadConfig{}

	accepted := 0
	accept := core.Bind(core.NBIO(func() int { accepted++; return accepted }),
		func(n int) core.M[Transport] {
			if n > 2 {
				return core.Throw[Transport](errors.New("listener closed"))
			}
			return core.Return[Transport](poisonTransport{})
		})
	rt.Run(core.Catch(srv.acceptLoop(accept), func(error) core.M[core.Unit] { return core.Skip }))
	rt.WaitIdle()

	if accepted != 3 {
		t.Fatalf("accept ran %d times, want 3 (a leaked slot parks the loop)", accepted)
	}
	if got := srv.Limiter().Inflight(); got != 0 {
		t.Fatalf("inflight = %d after panicked connections, want 0 (leaked slot)", got)
	}
	if got := srv.Errors(); got != 2 {
		t.Fatalf("errors = %d, want 2", got)
	}
	if errs := rt.UncaughtErrors(); len(errs) != 0 {
		t.Fatalf("handler panic leaked as uncaught: %v", errs)
	}
	if busy := clk.Busy(); busy != 0 {
		t.Fatalf("vclock busy = %d, want 0", busy)
	}
}
