package loadgen

import (
	"errors"
	"testing"
	"time"

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
