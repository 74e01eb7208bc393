package kernel

import (
	"bytes"
	"errors"
	"testing"

	"hybrid/internal/faults"
)

// TestDiscard pins Discard to Read's semantics on a stream socket: the
// dropped bytes are the ones a read would have taken, so the next read
// sees what follows them; an empty ring is EAGAIN, a closed writer EOF,
// and a drain wakes a parked writer. A descriptor that is not a stream
// socket, or a negative length, is EINVAL.
func TestDiscard(t *testing.T) {
	k := newKernel()
	a, b := k.SocketPair()
	if n, err := k.Discard(b, 10); n != 0 || !errors.Is(err, ErrAgain) {
		t.Fatalf("Discard on an empty socket = (%d, %v), want EAGAIN", n, err)
	}
	if _, err := k.Write(a, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Discard(b, 4); n != 4 || err != nil {
		t.Fatalf("Discard(4) = (%d, %v)", n, err)
	}
	got := make([]byte, 16)
	if n, err := k.Read(b, got); err != nil || !bytes.Equal(got[:n], []byte("456789")) {
		t.Fatalf("Read after Discard = %q, %v", got[:n], err)
	}

	// A full ring parks the writer; a discard is the drain that wakes it.
	for {
		if _, err := k.Write(a, make([]byte, 8192)); errors.Is(err, ErrAgain) {
			break
		}
	}
	rec := watchFD(t, k, a, EventWrite)
	if n, err := k.Discard(b, DefaultSocketBuffer+1); n != DefaultSocketBuffer || err != nil {
		t.Fatalf("Discard of a full ring = (%d, %v), want (%d, nil)", n, err, DefaultSocketBuffer)
	}
	if evs := rec.take(); len(evs) != 1 {
		t.Fatalf("discard produced %d writer events, want 1", len(evs))
	}

	if err := k.Close(a); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Discard(b, 1); n != 0 || err != nil {
		t.Fatalf("Discard after the peer closed = (%d, %v), want EOF", n, err)
	}
	r, _ := k.NewPipe(0)
	if _, err := k.Discard(r, 1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Discard on a pipe = %v, want EINVAL", err)
	}
	if _, err := k.Discard(b, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Discard(-1) = %v, want EINVAL", err)
	}
}

// TestDiscardFaultParity holds Discard to Read under fault injection: at
// the same injector seed the two draw the same EINTR/EAGAIN/EIO sequence,
// move the same byte counts, and leave reads, eagains and bytes_read
// equal.
func TestDiscardFaultParity(t *testing.T) {
	type outcome struct {
		n   int
		err error
	}
	run := func(drop bool) ([]outcome, map[string]uint64) {
		k := newKernel()
		k.SetFaults(faults.New(faults.Config{
			Seed:  42,
			Rates: map[faults.Op]float64{faults.KernelRead: 0.4},
		}, nil))
		a, b := k.SocketPair()
		buf := make([]byte, 700)
		var out []outcome
		for i := 0; i < 400; i++ {
			if i%3 == 0 {
				if _, err := k.Write(a, make([]byte, 1000)); err != nil && !errors.Is(err, ErrAgain) {
					t.Fatal(err)
				}
			}
			var o outcome
			if drop {
				o.n, o.err = k.Discard(b, len(buf))
			} else {
				o.n, o.err = k.Read(b, buf)
			}
			out = append(out, o)
		}
		return out, map[string]uint64{
			"reads": k.reads.Load(), "eagains": k.eagains.Load(), "bytes_read": k.bytesRead.Load(),
		}
	}
	reads, readCounts := run(false)
	drops, dropCounts := run(true)
	seen := map[error]bool{}
	for i := range reads {
		r, d := reads[i], drops[i]
		if r.n != d.n || !sameErr(r.err, d.err) {
			t.Fatalf("call %d: Read = (%d, %v), Discard = (%d, %v)", i, r.n, r.err, d.n, d.err)
		}
		seen[r.err] = true
	}
	for _, err := range []error{ErrIntr, ErrAgain, ErrIO, nil} {
		if !seen[err] {
			t.Errorf("no call returned %v", err)
		}
	}
	for name, want := range readCounts {
		if got := dropCounts[name]; got != want {
			t.Errorf("%s: Discard moved it to %d, Read to %d", name, got, want)
		}
	}
}
