package kernel

import (
	"errors"
	"testing"
)

// These tests pin the close-wake contract a lifecycle shed depends on:
// closing a descriptor must wake waiters parked on that descriptor's
// *own* ends, not only the peer's. Before this contract, Kernel().Close
// from a deadline callback left the victim's handler thread parked on
// its own read — slot held — until the peer happened to close, which is
// exactly the latency a shed exists to avoid.

// socketPair returns a connected (client, server) fd pair.
func socketPair(t *testing.T, k *Kernel) (FD, FD) {
	t.Helper()
	lfd, err := k.Listen("pair:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := k.Connect("pair:1")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := k.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(lfd); err != nil {
		t.Fatal(err)
	}
	return cfd, sfd
}

func TestCloseWakesOwnReader(t *testing.T) {
	k := newKernel()
	_, sfd := socketPair(t, k)
	// Park a read watch on the server's own fd with no data pending.
	rec := watchFD(t, k, sfd, EventRead)
	if evs := rec.take(); len(evs) != 0 {
		t.Fatalf("idle socket reported ready: %v", evs)
	}
	// A shed closes the fd out from under its parked reader.
	if err := k.Close(sfd); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0]&EventHup == 0 {
		t.Fatalf("events = %v, want HUP on the closed fd's own reader", evs)
	}
	if _, err := k.Read(sfd, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read after own close: %v, want ErrBadFD", err)
	}
}

func TestCloseWakesOwnWriter(t *testing.T) {
	k := newKernel()
	_, sfd := socketPair(t, k)
	// Fill the server's transmit buffer so a write watch parks.
	buf := make([]byte, DefaultSocketBuffer)
	for {
		if _, err := k.Write(sfd, buf); err != nil {
			if !errors.Is(err, ErrAgain) {
				t.Fatal(err)
			}
			break
		}
	}
	rec := watchFD(t, k, sfd, EventWrite)
	if evs := rec.take(); len(evs) != 0 {
		t.Fatalf("full socket reported writable: %v", evs)
	}
	if err := k.Close(sfd); err != nil {
		t.Fatal(err)
	}
	if evs := rec.take(); len(evs) != 1 || evs[0]&EventHup == 0 {
		t.Fatalf("events = %v, want HUP on the closed fd's own writer", evs)
	}
	if _, err := k.Write(sfd, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write after own close: %v, want ErrBadFD", err)
	}
}
