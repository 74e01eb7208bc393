package tcp

import (
	"bytes"
	"testing"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
)

// skipAllocPinUnderRace skips a pin whose count runs through a sync.Pool
// (bufpool's wire buffers, netsim's packet records): under the race
// detector the pool drops some of what is put back.
func skipAllocPinUnderRace(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
}

// TestAllocSegmentSendDecode pins the segment codec: a segment built by
// value, encoded into a pooled wire buffer and decoded into a segment the
// caller owns allocates nothing, SACK blocks included once the decoded
// segment has room for them.
func TestAllocSegmentSendDecode(t *testing.T) {
	skipAllocPinUnderRace(t)
	payload := bytes.Repeat([]byte("segment"), 200)
	var got Segment
	allocs := testing.AllocsPerRun(200, func() {
		seg := Segment{
			SrcPort: 80, DstPort: 49152, Seq: 1000, Ack: 2000,
			Flags: FlagACK, Window: 65535, Payload: iovec.FromBytes(payload),
			Sack: []SackBlock{{3000, 4000}, {5000, 6000}},
		}
		wire := bufpool.Get(seg.WireLen())
		seg.EncodeTo(wire)
		if err := decodeInto(&got, wire); err != nil {
			t.Fatal(err)
		}
		bufpool.Put(wire)
	})
	if allocs != 0 {
		t.Fatalf("segment encode and decode allocate %.1f objects, want 0", allocs)
	}
	if got.Seq != 1000 || got.Payload.Len() != len(payload) || len(got.Sack) != 2 || got.Sack[1].End != 6000 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestAllocRTORearm pins the retransmission timer's re-arm, which every
// advancing ACK makes: the owned timer is sifted in place, no closure and
// no timer record per arm.
func TestAllocRTORearm(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, _ := w.connectPair(t, 80)
	w.clk.Enter() // nothing is delivered and no deadline passes while held
	if _, err := client.TryWrite([]byte("unacked")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.a.mu.Lock()
		client.restartRTOLocked()
		w.a.mu.Unlock()
	})
	w.clk.Exit()
	w.settle()
	if allocs != 0 {
		t.Fatalf("restartRTOLocked allocates %.1f objects, want 0", allocs)
	}
}

// TestAllocTCPReadParksPerSegment: two threads trade one segment each way
// through a read and a vectored write applied once, and every read finds
// its connection empty and parks. Per trip that is four packets, two data
// segments and their two ACKs, and netsim's payload copy of each is the
// only allocation: the segments are built and decoded on the stack, the
// wakes gathered on it, the parked hooks' lists keep their storage, and
// the RTO is re-armed in place.
func TestAllocTCPReadParksPerSegment(t *testing.T) {
	skipAllocPinUnderRace(t)
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	ping, pong := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)
	inC, inS := make([]byte, 64), make([]byte, 64)
	const trips = 4000 // the per-run set-up, about 50 allocations, is spread thin
	// side is one end of the exchange, both halves applied once: write
	// then read when it serves first, read then write when it answers.
	side := func(c *Conn, out *[]byte, in []byte, serves bool) core.M[core.Unit] {
		return func(k func(core.Unit) core.Trace) core.Trace {
			var send, read core.Trace
			if serves {
				read = c.ReadM(in)(func(int) core.Trace { return k(core.Unit{}) })
				send = c.WriteCellVM(out)(func(int) core.Trace { return read })
				return send
			}
			send = c.WriteCellVM(out)(func(int) core.Trace { return k(core.Unit{}) })
			read = c.ReadM(in)(func(int) core.Trace { return send })
			return read
		}
	}
	parks := func() int64 { return w.rt.Stats().Snapshot().Counter("parks") }
	sent := func() uint64 { n, _, _, _ := w.net.Stats(); return n }
	var runs int64
	p0, s0 := parks(), sent()
	total := testing.AllocsPerRun(10, func() {
		runs++
		w.clk.Enter()
		w.rt.Spawn(core.RepeatN(trips, side(server, &pong, inS, false)))
		w.clk.Exit()
		w.rt.Run(core.RepeatN(trips, side(client, &ping, inC, true)))
	})
	w.settle()
	if got, want := parks()-p0, runs*2*trips; got != want {
		t.Fatalf("%d parks in %d runs, want %d: a read found data waiting", got, runs, want)
	}
	packets := float64(sent()-s0) / float64(runs)
	if packets != 4*trips {
		t.Fatalf("%.0f packets per run, want %d", packets, 4*trips)
	}
	if per := (total - packets) / trips; per > 0.05 {
		t.Fatalf("tcp allocates %.2f objects per trip beyond netsim's payload copies (%.0f per run), want 0", per, total)
	} else {
		t.Logf("tcp: %.3f allocs/trip beyond %.0f payload copies per run", per, packets)
	}
}
