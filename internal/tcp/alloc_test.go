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
	if _, err := client.TryWriteV(iovec.FromBytes([]byte("unacked"))); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, client.restartRTO)
	w.clk.Exit()
	w.settle()
	if allocs != 0 {
		t.Fatalf("restartRTO allocates %.1f objects, want 0", allocs)
	}
}

// TestAllocTCPReadParksPerSegment: two threads trade one segment each way
// through a read and a vectored write applied once, and every read finds
// its connection empty and parks. Per trip that is four packets, two data
// segments and their two ACKs, and none of it allocates: each segment is
// encoded into a pooled datagram that netsim hands to the peer without a
// copy and the peer returns once read, the segments are decoded on the
// stack, the wakes gathered on it, the parked hooks' and held datagrams'
// lists keep their storage, and the RTO is re-armed in place.
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
	if per := total / trips; per > 0.05 {
		t.Fatalf("a trip allocates %.2f objects (%.0f per run), want 0", per, total)
	} else {
		t.Logf("tcp: %.3f allocs/trip", per)
	}
}

// TestAllocResentMessage pins a send applied once and forced message after
// message, as the serve loop forces its writes: WriteM, which copies each
// message, and WriteCellVM and WriteVM, which queue by reference.
// A writer thread sends msgs messages through the one application while
// the peer reads them back, so the send buffer fills, parks and drains.
// The send buffer is an iovec.Queue: a message is appended into its
// segment list in place and each segment is cut off as a view of that
// list, so only WriteM's copy of each message is left (1.05 and 0.02
// measured; 5.84 and 3.91 when the buffer was a Vec that rebuilt its list
// at every append and every cut).
func TestAllocResentMessage(t *testing.T) {
	skipAllocPinUnderRace(t)
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	msg := bytes.Repeat([]byte{3}, 600)
	in := make([]byte, len(msg))
	const msgs = 2000 // the per-run spawn and set-up are spread thin
	for _, tc := range []struct {
		name string
		send core.M[int]
		max  float64 // allocations per message
	}{
		{"WriteM", client.WriteM(msg), 1.08},
		{"WriteCellVM", client.WriteCellVM(&msg), 0.03},
		{"WriteVM", client.WriteVM(iovec.FromBytes(msg)), 0.03},
	} {
		writer := core.RepeatN(msgs, core.Then(tc.send, core.Skip))
		reader := core.RepeatN(msgs, core.Then(server.ReadFullM(in), core.Skip))
		total := testing.AllocsPerRun(5, func() {
			w.clk.Enter()
			w.rt.Spawn(writer)
			w.clk.Exit()
			w.rt.Run(reader)
		})
		w.settle()
		if per := total / msgs; per > tc.max {
			t.Errorf("%s: a message allocates %.3f objects (%.0f per run), want at most %.2f", tc.name, per, total, tc.max)
		} else {
			t.Logf("%s: %.3f allocs/message", tc.name, per)
		}
	}
	if !bytes.Equal(in, msg) {
		t.Fatalf("last message read %v", in[:8])
	}
}

// An application of a ported primitive's M is its one record, whatever
// the inliner does (make core-alloc): each M is built beforehand, once
// directly and once inside a //go:noinline wrapper, and one application
// of each is counted. The two must read 1.
func TestAllocApplyPrimitive(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, _ := w.connectPair(t, 80)
	l, err := w.b.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 64)
	v := iovec.FromBytes(p)
	for _, tc := range []struct {
		name            string
		direct, wrapped float64
	}{
		{"AcceptM", applyAllocs(l.AcceptM()), applyAllocs(acceptMVia(l))},
		{"ReadM", applyAllocs(client.ReadM(p)), applyAllocs(readMVia(client, p))},
		{"ReadFullM", applyAllocs(client.ReadFullM(p)), applyAllocs(readFullMVia(client, p))},
		{"WriteM", applyAllocs(client.WriteM(p)), applyAllocs(writeMVia(client, p))},
		{"WriteVM", applyAllocs(client.WriteVM(v)), applyAllocs(writeVMVia(client, v))},
		{"WriteCellVM", applyAllocs(client.WriteCellVM(&p)), applyAllocs(writeCellVMVia(client, &p))},
	} {
		if tc.direct != 1 || tc.wrapped != 1 {
			t.Errorf("%s: an application allocates %.2f objects, %.2f through a wrapper; want 1 both",
				tc.name, tc.direct, tc.wrapped)
		}
	}
}

// A Poll primitive applied and parked once allocates its record and
// nothing more: the record is its park's arm and holds the waiter the
// ready hook links (make core-alloc; 2 while the first park bound a
// method value of its Wake for the hook, 3 when it bound the arm as
// well). Two threads trade a
// segment; the answering thread applies its ReadM afresh for every
// message, through reapply, and finds its connection empty each time,
// while everything else is applied once, so a trip costs that
// application and park alone.
func TestAllocFirstPark(t *testing.T) {
	skipAllocPinUnderRace(t)
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	ping, pong := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)
	inC, inS := make([]byte, 64), make([]byte, 64)
	const trips = 4000
	serve := func(k func(core.Unit) core.Trace) core.Trace {
		read := client.ReadM(inC)(func(int) core.Trace { return k(core.Unit{}) })
		return client.WriteCellVM(&ping)(func(int) core.Trace { return read })
	}
	answer := reapply(server.ReadM(inS), server.WriteCellVM(&pong))
	parks := func() int64 { return w.rt.Stats().Snapshot().Counter("parks") }
	var runs int64
	p0 := parks()
	total := testing.AllocsPerRun(10, func() {
		runs++
		w.clk.Enter()
		w.rt.Spawn(core.ForN(trips, func(int) core.M[core.Unit] { return answer }))
		w.clk.Exit()
		w.rt.Run(core.RepeatN(trips, serve))
	})
	w.settle()
	if got, want := parks()-p0, runs*2*trips; got != want {
		t.Fatalf("%d parks in %d runs, want %d: a read found data waiting", got, runs, want)
	}
	if per := total / trips; per > 1.05 {
		t.Fatalf("a read applied and parked once allocates %.2f objects (%.0f per run), want 1: its record", per, total)
	} else {
		t.Logf("a read applied and parked once: %.3f allocs", per)
	}
}

// reapply is a unit computation that applies m afresh each time it is
// applied, then continues through then, which is applied once: it
// allocates nothing of its own, so ForN forcing it counts m's application.
func reapply(m, then core.M[int]) core.M[core.Unit] {
	s := &reapplied{m: m}
	s.got = s.next
	s.then = then(s.done)
	return s.apply
}

type reapplied struct {
	m    core.M[int]
	got  func(int) core.Trace
	then core.Trace
	k    func(core.Unit) core.Trace
}

func (s *reapplied) apply(k func(core.Unit) core.Trace) core.Trace { s.k = k; return s.m(s.got) }
func (s *reapplied) next(int) core.Trace                           { return s.then }
func (s *reapplied) done(int) core.Trace                           { return s.k(core.Unit{}) }

// applyAllocs counts the allocations of one application of m.
func applyAllocs[A any](m core.M[A]) float64 {
	k := func(A) core.Trace { return nil }
	return testing.AllocsPerRun(100, func() { m(k) })
}

//go:noinline
func acceptMVia(l *Listener) core.M[*Conn] { return l.AcceptM() }

//go:noinline
func readMVia(c *Conn, p []byte) core.M[int] { return c.ReadM(p) }

//go:noinline
func readFullMVia(c *Conn, p []byte) core.M[int] { return c.ReadFullM(p) }

//go:noinline
func writeMVia(c *Conn, p []byte) core.M[int] { return c.WriteM(p) }

//go:noinline
func writeVMVia(c *Conn, v iovec.Vec) core.M[int] { return c.WriteVM(v) }

//go:noinline
func writeCellVMVia(c *Conn, cell *[]byte) core.M[int] { return c.WriteCellVM(cell) }
