package loadgen

import (
	"errors"
	"testing"

	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// TestIdleAttackPastHorizon: an idle connection made once the horizon has
// passed raises ErrTimedOut without reading, and leaves its deadline
// disarmed.
func TestIdleAttackPastHorizon(t *testing.T) {
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	lfd, err := k.Listen("x:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := k.Connect("x:1")
	if err != nil {
		t.Fatal(err)
	}
	// A byte is waiting, so a read would finish at once.
	peer, err := k.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(peer, []byte{'x'}); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	a := NewAdversary(hio.New(rt, k, nil), AttackConfig{Mode: AttackIdle})
	dl := newSessionDeadline(k, clk)
	var caught error
	done := make(chan struct{})
	rt.Spawn(core.Catch(a.engage(conn, nil, dl, clk.Now()), func(err error) core.M[core.Unit] {
		return core.Do(func() { caught = err; close(done) })
	}))
	<-done
	if !errors.Is(caught, ErrTimedOut) {
		t.Fatalf("caught %v, want ErrTimedOut", caught)
	}
	if n, err := k.Read(conn, make([]byte, 1)); n != 1 {
		t.Fatalf("the waiting byte was read (read %d, %v)", n, err)
	}
	if fd := dl.disarm(); fd != noSession {
		t.Fatalf("deadline armed on %d past the horizon", fd)
	}
}
