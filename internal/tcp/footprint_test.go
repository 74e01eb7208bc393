package tcp

import (
	"testing"
	"unsafe"

	"hybrid/internal/netsim"
)

// TestTCBFootprint pins the compact-connection-state work: the TCB and
// the per-segment retransmission record are packed (pointer fields, then
// 8/4-byte scalars, then flag bytes), the reassembly map is lazy, and a
// parked keep-alive connection's fixed cost is one Conn plus nothing.
// A Conn is 448 bytes (472 while its three ready-hook lists were slices
// rather than list heads).
// A refactor that reopens pad holes or re-eagers the ooo map fails here
// before it shows up as megabytes in cmd/memtest.
func TestTCBFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 456 {
		t.Errorf("Conn is %d bytes, budget 456 — field packing regressed", got)
	}
	if got := unsafe.Sizeof(rtxSeg{}); got > 72 {
		t.Errorf("rtxSeg is %d bytes, budget 72 — field packing regressed", got)
	}
}

// TestOOOMapLazy pins the lazy reassembly allocation: an in-order
// connection never allocates the map — not at establishment and not
// after a loss-free transfer. (Creation on out-of-order arrival and
// teardown on drain are exercised by the loss/reorder transfer tests;
// this pins the common case a million parked connections rely on.)
func TestOOOMapLazy(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	if client.ooo != nil || server.ooo != nil {
		t.Fatal("fresh connection allocated a reassembly map")
	}
	transfer(t, w, client, server, 64<<10)
	if client.ooo != nil || server.ooo != nil {
		t.Fatal("in-order transfer allocated a reassembly map")
	}
}
