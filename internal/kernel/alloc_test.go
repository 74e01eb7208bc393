package kernel

import (
	"testing"

	"hybrid/internal/bufpool"
)

// TestAllocSockLend pins the lent send path: a 16 KB WriteRef on a stream
// socket, drained by two 8 KB reads, allocates nothing and draws no ring
// segment — the ring references the bytes, and only the reader copies.
func TestAllocSockLend(t *testing.T) {
	k := newKernel()
	a, b := k.SocketPair()
	body := make([]byte, 16<<10)
	rbuf := make([]byte, 8<<10)
	gets := bufpool.SegGets()
	n := testing.AllocsPerRun(200, func() {
		if n, err := k.WriteRef(a, body); n != len(body) || err != nil {
			t.Fatalf("WriteRef = (%d, %v)", n, err)
		}
		for i := 0; i < 2; i++ {
			if n, err := k.Read(b, rbuf); n != len(rbuf) || err != nil {
				t.Fatalf("Read = (%d, %v)", n, err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("lent 16 KB send and drain allocates %v per run, want 0", n)
	}
	if got := bufpool.SegGets() - gets; got != 0 {
		t.Fatalf("lent sends drew %d ring segments, want 0", got)
	}
}
