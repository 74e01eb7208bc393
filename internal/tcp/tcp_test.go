package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/vclock"
)

// world is a two-host network with a TCP stack on each end and one
// runtime on the network's virtual clock. A test's clients and servers
// are monadic threads making TCP system calls (§4.8), through the same
// core.Poll path every server and figure takes.
type world struct {
	clk    *vclock.VirtualClock
	net    *netsim.Network
	a, b   *Stack
	ha, hb *netsim.Host
	rt     *core.Runtime
}

func newWorld(t *testing.T, link netsim.LinkParams, cfg Config) *world {
	t.Helper()
	return newWorldCfg(t, link, 7, cfg, cfg)
}

// newWorldCfg is newWorld with the seed of the network's loss, reorder and
// duplication draws, and a config per stack (negotiation tests have the
// two ends disagree).
func newWorldCfg(t *testing.T, link netsim.LinkParams, seed int64, cfgA, cfgB Config) *world {
	t.Helper()
	clk := vclock.NewVirtual()
	n := netsim.New(clk, seed)
	ha, err := n.Host("hostA", link)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.Host("hostB", link)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	t.Cleanup(rt.Shutdown)
	return &world{
		clk: clk, net: n, ha: ha, hb: hb, rt: rt,
		a: NewStack(ha, cfgA),
		b: NewStack(hb, cfgB),
	}
}

// run spawns threads on the world's runtime, waits until every one has
// finished, settles the network, and fails the test if a thread raised an
// exception nothing caught. Time stands still until every thread exists:
// otherwise the first could park and the clock run on without the others
// (a writer's persist timer probes a reader that is never spawned).
func (w *world) run(t *testing.T, threads ...core.M[core.Unit]) {
	t.Helper()
	w.clk.Enter()
	for _, m := range threads {
		w.rt.Spawn(m)
	}
	w.clk.Exit()
	w.rt.WaitIdle()
	w.settle()
	if errs := w.rt.UncaughtErrors(); len(errs) > 0 {
		t.Fatalf("uncaught: %v", errs)
	}
}

// settle drives the network to quiescence: no event pending and none
// firing. Every batch fires on the runtime's worker, so a thread that
// finds nothing pending also finds no batch under way.
func (w *world) settle() {
	for idle := false; !idle; {
		w.rt.Run(core.Do(func() { idle = w.clk.Pending() == 0 }))
	}
}

// connectPair establishes a client connection from a to a listener on b.
func (w *world) connectPair(t *testing.T, port uint16) (client, server *Conn) {
	t.Helper()
	l, err := w.b.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	w.run(t, store(l.AcceptM(), &server), store(w.a.ConnectM("hostB", port), &client))
	return client, server
}

// store runs m and keeps its result in *dst.
func store[A any](m core.M[A], dst *A) core.M[core.Unit] {
	return core.Map(m, func(a A) core.Unit { *dst = a; return core.Unit{} })
}

// catch runs m and keeps the exception it raises, if any, in *err.
func catch[A any](m core.M[A], err *error) core.M[core.Unit] {
	return core.Catch(core.Then(m, core.Skip), func(e error) core.M[core.Unit] {
		return core.Do(func() { *err = e })
	})
}

// send writes all of p to c.
func send(c *Conn, p []byte) core.M[core.Unit] { return core.Then(c.WriteM(p), core.Skip) }

// readFull reads n bytes from c (fewer if the stream ends) into *got.
func readFull(c *Conn, n int, got *string) core.M[core.Unit] {
	buf := make([]byte, n)
	return core.Map(c.ReadFullM(buf), func(k int) core.Unit { *got = string(buf[:k]); return core.Unit{} })
}

// readAll reads c to end of stream through a chunk-byte buffer, appending
// what arrives to *got.
func readAll(c *Conn, chunk int, got *[]byte) core.M[core.Unit] {
	buf := make([]byte, chunk)
	return core.Loop(core.Map(c.ReadM(buf), func(n int) bool {
		*got = append(*got, buf[:n]...)
		return n > 0
	}))
}

// encode serializes s into a fresh buffer.
func encode(s *Segment) []byte {
	buf := make([]byte, s.WireLen())
	s.EncodeTo(buf)
	return buf
}

func TestHandshake(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	if client.State() != StateEstablished || server.State() != StateEstablished {
		t.Fatalf("states: client=%v server=%v", client.State(), server.State())
	}
}

func TestConnectRefusedByRST(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	var err error
	w.run(t, catch(w.a.ConnectM("hostB", 81), &err)) // nobody listening
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want refused", err)
	}
}

func TestSimpleTransfer(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	var got string
	eof := -1
	w.run(t,
		core.Seq(send(client, []byte("hello tcp")), client.CloseM()),
		core.Then(readFull(server, 9, &got), store(server.ReadM(make([]byte, 64)), &eof)),
	)
	if got != "hello tcp" {
		t.Fatalf("read %q", got)
	}
	if eof != 0 {
		t.Fatalf("EOF read = %d", eof)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	buf := make([]byte, 16)
	var reply string
	w.run(t,
		core.Bind(server.ReadFullM(buf[:4]), func(n int) core.M[core.Unit] {
			return core.Seq(send(server, bytes.ToUpper(buf[:n])), server.CloseM())
		}),
		core.Then(send(client, []byte("ping")), readFull(client, 4, &reply)),
	)
	if reply != "PING" {
		t.Fatalf("reply %q", reply)
	}
}

// transfer runs one client→server bulk transfer and verifies integrity. It
// returns the virtual time at which the server read end of stream, and
// both stacks' counters at that moment.
func transfer(t *testing.T, w *world, client, server *Conn, size int) (vclock.Time, Stats, Stats) {
	t.Helper()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	var got []byte
	w.run(t, core.Seq(send(client, payload), client.CloseM()), readAll(server, 8192, &got))
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted: got %d bytes want %d", len(got), len(payload))
	}
	return w.clk.Now(), w.a.Snapshot(), w.b.Snapshot()
}

func transferOnce(t *testing.T, link netsim.LinkParams, cfg Config, size int) (vclock.Time, Stats, Stats) {
	t.Helper()
	w := newWorld(t, link, cfg)
	client, server := w.connectPair(t, 80)
	return transfer(t, w, client, server, size)
}

func TestBulkTransfer(t *testing.T) {
	at, _, _ := transferOnce(t, netsim.Ethernet100(), Config{}, 1<<20)
	// 1 MB at 100 Mbps is at least ~84 ms of serialization.
	if at < vclock.Time(80*time.Millisecond) {
		t.Fatalf("1MB finished unrealistically fast: %v", at)
	}
}

func TestBulkTransferSmallWindow(t *testing.T) {
	// A transfer 32 times the receive buffer forces constant
	// window-limited operation.
	transferOnce(t, netsim.Ethernet100(), Config{}, 32*bufSize)
}

func TestTransferWithLoss(t *testing.T) {
	link := netsim.Ethernet100()
	link.LossProb = 0.05
	cfg := Config{RTOMin: 20 * time.Millisecond, InitialRTO: 50 * time.Millisecond, MaxRetries: 16}
	_, sa, _ := transferOnce(t, link, cfg, 256*1024)
	if sa.Retransmits == 0 && sa.FastRetransmits == 0 {
		t.Fatal("5% loss produced no retransmissions")
	}
}

func TestTransferWithReorderAndDup(t *testing.T) {
	link := netsim.Ethernet100()
	link.ReorderProb = 0.2
	link.DupProb = 0.05
	_, _, sb := transferOnce(t, link, Config{}, 256*1024)
	if sb.OutOfOrderIn == 0 {
		t.Fatal("reordering produced no out-of-order segments")
	}
}

func TestTransferHarshNetwork(t *testing.T) {
	link := netsim.Ethernet100()
	link.LossProb = 0.1
	link.ReorderProb = 0.2
	link.DupProb = 0.1
	cfg := Config{RTOMin: 20 * time.Millisecond, InitialRTO: 50 * time.Millisecond, MaxRetries: 16}
	transferOnce(t, link, cfg, 128*1024)
}

func TestTransferMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep")
	}
	cfg := Config{RTOMin: 20 * time.Millisecond, InitialRTO: 50 * time.Millisecond, MaxRetries: 16}
	for _, loss := range []float64{0, 0.1, 0.25} {
		for _, reorder := range []float64{0, 0.25, 0.45} {
			for _, dup := range []float64{0, 0.2} {
				link := netsim.Ethernet100()
				link.LossProb, link.ReorderProb, link.DupProb = loss, reorder, dup
				transferOnce(t, link, cfg, 32*1024)
			}
		}
	}
}

// Property: the byte stream survives arbitrary loss/reorder/dup —
// exactly-once, in-order delivery.
func TestStreamIntegrityProperty(t *testing.T) {
	check := func(lossP, reorderP, dupP uint8, sizeK uint8) bool {
		link := netsim.Ethernet100()
		link.LossProb = float64(lossP%30) / 100
		link.ReorderProb = float64(reorderP%50) / 100
		link.DupProb = float64(dupP%30) / 100
		size := (int(sizeK%64) + 1) * 1024
		cfg := Config{RTOMin: 20 * time.Millisecond, InitialRTO: 50 * time.Millisecond, MaxRetries: 16}
		w := newWorldCfg(t, link, int64(lossP)*7919+int64(reorderP), cfg, cfg)
		l, err := w.b.Listen(80)
		if err != nil {
			return false
		}
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + 13)
		}
		var got []byte
		ok := true
		w.run(t,
			core.Catch(core.Bind(l.AcceptM(), func(s *Conn) core.M[core.Unit] {
				return readAll(s, 4096, &got)
			}), func(error) core.M[core.Unit] {
				return core.Do(func() { ok = false })
			}),
			core.Catch(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
				return core.Seq(send(c, payload), c.CloseM())
			}), func(error) core.M[core.Unit] {
				return core.Do(func() {
					ok = false
					l.Close() // unblock the accept side
				})
			}),
		)
		return ok && bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseHandshakeStates(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	client.Close()
	w.settle()
	if st := server.State(); st != StateCloseWait {
		t.Fatalf("server state after client FIN = %v, want CLOSE_WAIT", st)
	}
	if st := client.State(); st != StateFinWait2 {
		t.Fatalf("client state = %v, want FIN_WAIT_2", st)
	}
	server.Close()
	w.settle() // settling to quiescence also expires TIME_WAIT (2*MSL)
	if st := client.State(); st != StateClosed {
		t.Fatalf("client state after both FINs + 2*MSL = %v, want CLOSED", st)
	}
	if st := server.State(); st != StateClosed {
		t.Fatalf("server state = %v, want CLOSED", st)
	}
}

func TestTimeWaitStateObservable(t *testing.T) {
	// Script the peer by hand so the clock can be held busy while the
	// FIN exchange completes: the client must sit in TIME_WAIT until the
	// 2*MSL timer is allowed to fire.
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	ha, _ := n.Host("hostA", netsim.Ethernet100())
	hb, _ := n.Host("hostB", netsim.Ethernet100())
	a := NewStack(ha, Config{})
	// Fake server: reply to SYN with SYN-ACK, to FIN with ACK then FIN.
	var serverISS uint32 = 7000
	hb.SetHandler(func(src string, data []byte) {
		seg, err := Decode(data)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		switch {
		case seg.Flags&FlagSYN != 0:
			hb.Send(src, encode(&Segment{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Seq: serverISS, Ack: seg.Seq + 1,
				Flags: FlagSYN | FlagACK, Window: 65536,
			}))
		case seg.Flags&FlagFIN != 0:
			// ACK the FIN, then send our own FIN.
			hb.Send(src, encode(&Segment{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Seq: serverISS + 1, Ack: seg.Seq + 1,
				Flags: FlagACK, Window: 65536,
			}))
			hb.Send(src, encode(&Segment{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Seq: serverISS + 1, Ack: seg.Seq + 1,
				Flags: FlagFIN | FlagACK, Window: 65536,
			}))
		}
	})
	clk.Enter()
	c, err := a.Connect("hostB", 80)
	if err != nil {
		t.Fatal(err)
	}
	var afterHandshake, afterFins State
	// Probe events: 1s is after the handshake but before anything else;
	// 2s is after the FIN exchange but well before 2*MSL (60s).
	clk.After(time.Second, func() {
		afterHandshake = c.State()
		c.Close()
	})
	clk.After(2*time.Second, func() { afterFins = c.State() })
	clk.Exit() // run the whole timeline to quiescence
	if afterHandshake != StateEstablished {
		t.Fatalf("state after handshake = %v, want ESTABLISHED", afterHandshake)
	}
	if afterFins != StateTimeWait {
		t.Fatalf("state after FIN exchange = %v, want TIME_WAIT", afterFins)
	}
	if c.State() != StateClosed {
		t.Fatalf("state after 2*MSL = %v, want CLOSED", c.State())
	}
}

func TestTimeWaitExpires(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	client.Close()
	server.Close()
	w.settle() // runs the 2*MSL timer in virtual time
	if st := client.State(); st != StateClosed {
		t.Fatalf("client state after 2*MSL = %v, want CLOSED", st)
	}
	w.a.mu.Lock()
	n := len(w.a.conns)
	w.a.mu.Unlock()
	if n != 0 {
		t.Fatalf("client stack still tracks %d conns", n)
	}
}

func TestSimultaneousCloseReachesClosed(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	// Close both ends in one effect: time cannot advance while the worker
	// runs a thread, so the FINs cross in flight (simultaneous close →
	// CLOSING → TIME_WAIT).
	w.run(t, core.Do(func() {
		client.Close()
		server.Close()
	}))
	if st := client.State(); st != StateClosed {
		t.Fatalf("client = %v, want CLOSED after simultaneous close", st)
	}
	if st := server.State(); st != StateClosed {
		t.Fatalf("server = %v, want CLOSED after simultaneous close", st)
	}
}

func TestAbortSendsRST(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	client.Abort()
	w.settle()
	if err := server.Err(); !errors.Is(err, ErrConnReset) {
		t.Fatalf("server err = %v, want reset", err)
	}
	if _, err := server.TryRead(make([]byte, 4)); !errors.Is(err, ErrConnReset) {
		t.Fatalf("read after RST: %v", err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, _ := w.connectPair(t, 80)
	client.Close()
	if _, err := client.TryWrite([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func TestHalfCloseServerCanStillSend(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	client.Close() // client done sending; can still receive
	var got string
	w.run(t,
		core.Seq(send(server, []byte("late data")), server.CloseM()),
		readFull(client, 9, &got),
	)
	if got != "late data" {
		t.Fatalf("half-close read %q", got)
	}
}

func TestZeroWindowAndReopen(t *testing.T) {
	// A payload 32 times the receive buffer and a slow reader force
	// zero-window stalls; the window-update path must unstick the sender.
	cfg := Config{RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)
	payload := make([]byte, 32*bufSize)
	var got []byte
	w.run(t,
		core.Seq(send(client, payload), client.CloseM()),
		readAll(server, 512, &got),
	)
	if len(got) != len(payload) {
		t.Fatalf("received %d of %d through zero-window stalls", len(got), len(payload))
	}
}

func TestRetransmitTimeoutGivesUp(t *testing.T) {
	link := netsim.Ethernet100()
	link.LossProb = 1.0 // black hole
	cfg := Config{InitialRTO: 5 * time.Millisecond, RTOMin: 5 * time.Millisecond, MaxRetries: 3}
	w := newWorld(t, link, cfg)
	var err error
	w.run(t, catch(w.a.ConnectM("hostB", 80), &err))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestRTTEstimateConverges(t *testing.T) {
	link := netsim.Ethernet100()
	link.Latency = 5 * time.Millisecond
	w := newWorld(t, link, Config{})
	client, server := w.connectPair(t, 80)
	transfer(t, w, client, server, 256*1024)
	w.a.mu.Lock()
	srtt := client.srtt
	w.a.mu.Unlock()
	// One-way latency 5ms → RTT 10ms plus serialization and queueing;
	// with a growing congestion window, queueing inflates the estimate.
	if srtt < 9*time.Millisecond || srtt > 80*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~10-80ms", srtt)
	}
}

func TestCongestionWindowGrows(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	transfer(t, w, client, server, 512*1024)
	w.a.mu.Lock()
	cwnd := client.cc.Cwnd()
	w.a.mu.Unlock()
	if cwnd <= uint32(2*1460) {
		t.Fatalf("cwnd never grew: %d", cwnd)
	}
}

func TestRetransmissionsAreBoundedOnCleanLink(t *testing.T) {
	// On a lossless link nothing should ever be retransmitted.
	_, sa, sb := transferOnce(t, netsim.Ethernet100(), Config{}, 512*1024)
	if sa.Retransmits != 0 || sa.FastRetransmits != 0 {
		t.Fatalf("clean link retransmits: %d rto, %d fast", sa.Retransmits, sa.FastRetransmits)
	}
	if sb.RSTsOut != 0 {
		t.Fatalf("server sent %d RSTs on clean transfer", sb.RSTsOut)
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const conns = 50
	echo := func(s *Conn) core.M[core.Unit] {
		buf := make([]byte, 1024)
		return core.Loop(core.Bind(s.ReadM(buf), func(n int) core.M[bool] {
			if n == 0 {
				return core.Then(s.CloseM(), core.Return(false))
			}
			return core.Then(s.WriteM(buf[:n]), core.Return(true))
		}))
	}
	threads := []core.M[core.Unit]{
		core.RepeatN(conns, core.Bind(l.AcceptM(), func(s *Conn) core.M[core.Unit] {
			return core.Fork(echo(s))
		})),
	}
	for i := 0; i < conns; i++ {
		msg := []byte(fmt.Sprintf("conn-%d", i))
		threads = append(threads, core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
			buf := make([]byte, 64)
			return core.Then(send(c, msg), core.Bind(c.ReadFullM(buf[:len(msg)]), func(n int) core.M[core.Unit] {
				if !bytes.Equal(buf[:n], msg) {
					return core.Throw[core.Unit](fmt.Errorf("echo mismatch: %q", buf[:n]))
				}
				return c.CloseM()
			}))
		}))
	}
	w.run(t, threads...)
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, _ := w.b.Listen(99)
	var err error
	parked := 0
	w.run(t,
		catch(l.AcceptM(), &err),
		// One worker runs threads in spawn order: the accept has parked on
		// the listener by the time this closes it.
		core.Do(func() {
			w.b.mu.Lock()
			parked = len(l.waiters)
			w.b.mu.Unlock()
			l.Close()
		}),
	)
	if parked != 1 {
		t.Fatalf("%d accepts parked at close, want 1", parked)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	if _, err := w.b.Listen(7); err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.Listen(7); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("duplicate listen: %v", err)
	}
}

func TestLostHandshakeAckRecoveredByData(t *testing.T) {
	// Hand-crafted: server gets SYN, replies SYN-ACK; the handshake ACK
	// is "lost", and the first data segment completes the handshake.
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	if _, err := n.Host("hostA", netsim.Ethernet100()); err != nil {
		t.Fatal(err)
	}
	hb, _ := n.Host("hostB", netsim.Ethernet100())
	b := NewStack(hb, Config{})
	if _, err := b.Listen(80); err != nil {
		t.Fatal(err)
	}
	clk.Enter()
	syn := &Segment{SrcPort: 5000, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 65536}
	b.input("hostA", encode(syn))
	b.mu.Lock()
	c := b.conns[connKey{80, "hostA", 5000}]
	iss := c.iss
	b.mu.Unlock()
	if c.State() != StateSynRcvd {
		t.Fatalf("state after SYN = %v", c.State())
	}
	data := &Segment{SrcPort: 5000, DstPort: 80, Seq: 101, Ack: iss + 1,
		Flags: FlagACK, Window: 65536, Payload: iovec.FromBytes([]byte("hello"))}
	b.input("hostA", encode(data))
	clk.Exit()
	if c.State() != StateEstablished {
		t.Fatalf("state after data+ACK = %v, want ESTABLISHED", c.State())
	}
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	check := func(srcP, dstP uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		s := &Segment{
			SrcPort: srcP, DstPort: dstP, Seq: seq, Ack: ack,
			Flags: Flags(flags & 0xF), Window: 12345, Payload: iovec.FromBytes(payload),
		}
		d, err := Decode(encode(s))
		if err != nil {
			return false
		}
		return d.SrcPort == s.SrcPort && d.DstPort == s.DstPort &&
			d.Seq == s.Seq && d.Ack == s.Ack && d.Flags == s.Flags &&
			d.Window == s.Window && bytes.Equal(d.Payload.Bytes(), payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := &Segment{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: FlagACK, Payload: iovec.FromBytes([]byte("data"))}
	buf := encode(s)
	buf[headerSize] ^= 0xFF // flip a payload bit
	if _, err := Decode(buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("corrupt decode: %v", err)
	}
	if _, err := Decode(buf[:4]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short decode: %v", err)
	}
}

func TestSeqArithmeticWraparound(t *testing.T) {
	near := uint32(0xFFFFFFF0)
	far := uint32(0x10)
	if !seqLT(near, far) {
		t.Fatal("wraparound compare broken: near should be < far")
	}
	if !seqGT(far, near) || seqLEQ(far, near) || !seqGEQ(far, near) {
		t.Fatal("wraparound comparisons inconsistent")
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SA" {
		t.Fatalf("flags = %q", s)
	}
	if s := Flags(0).String(); s != "." {
		t.Fatalf("zero flags = %q", s)
	}
}

func TestStateString(t *testing.T) {
	if StateEstablished.String() != "ESTABLISHED" || StateTimeWait.String() != "TIME_WAIT" {
		t.Fatal("state names wrong")
	}
}

func TestWriteVZeroCopyTransfer(t *testing.T) {
	// The §5.2 zero-copy path: the caller hands over an I/O vector built
	// from several segments; bytes arrive intact and in order.
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	var parts [][]byte
	var want []byte
	for i := 0; i < 10; i++ {
		part := bytes.Repeat([]byte{byte('a' + i)}, 3000)
		parts = append(parts, part)
		want = append(want, part...)
	}
	v := iovec.New(parts...)
	var got []byte
	w.run(t,
		core.Seq(client.WriteVM(v), client.CloseM()),
		readAll(server, 4096, &got),
	)
	if !bytes.Equal(got, want) {
		t.Fatalf("zero-copy transfer corrupted: %d vs %d bytes", len(got), len(want))
	}
}

func TestWriteVTooLargeBlocksUntilDrained(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	big := iovec.FromBytes(make([]byte, 4*bufSize))
	var got []byte
	w.run(t,
		core.Seq(client.WriteVM(big), client.CloseM()),
		readAll(server, 4096, &got),
	)
	if len(got) != 4*bufSize {
		t.Fatalf("received %d of %d", len(got), 4*bufSize)
	}
}

func TestListenerBacklogDropsSYNFloods(t *testing.T) {
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	if _, err := n.Host("hostA", netsim.Ethernet100()); err != nil {
		t.Fatal(err)
	}
	hb, _ := n.Host("hostB", netsim.Ethernet100())
	b := NewStack(hb, Config{})
	if _, err := b.Listen(80); err != nil {
		t.Fatal(err)
	}
	// Flood bare SYNs from distinct fake ports; none complete a
	// handshake, so the embryonic queue fills and the rest are dropped.
	clk.Enter()
	for p := uint16(1); p <= maxBacklog+20; p++ {
		syn := &Segment{SrcPort: p, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 65536}
		b.input("hostA", encode(syn))
	}
	b.mu.Lock()
	embryonic := len(b.conns)
	dropped := b.stats.SynsDropped.Load()
	b.mu.Unlock()
	clk.Exit()
	if embryonic != maxBacklog {
		t.Fatalf("embryonic conns = %d, want backlog %d", embryonic, maxBacklog)
	}
	if dropped != 20 {
		t.Fatalf("SynsDropped = %d, want 20", dropped)
	}
}

func TestBacklogSlotReleasedOnEstablish(t *testing.T) {
	// Completing handshakes must free pending slots so a server can
	// accept far more connections than its backlog over time.
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const total = maxBacklog + 10
	// One client thread connects total times in turn; each connection
	// completes before the next starts.
	w.run(t,
		core.RepeatN(total, core.Bind(l.AcceptM(), (*Conn).CloseM)),
		core.RepeatN(total, core.Bind(w.a.ConnectM("hostB", 80), (*Conn).CloseM)),
	)
}

func TestFINWithDataInOneSegment(t *testing.T) {
	// A final segment carrying both data and FIN: the receiver must
	// deliver the bytes and then EOF.
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	if _, err := n.Host("hostA", netsim.Ethernet100()); err != nil {
		t.Fatal(err)
	}
	hb, _ := n.Host("hostB", netsim.Ethernet100())
	b := NewStack(hb, Config{})
	if _, err := b.Listen(80); err != nil {
		t.Fatal(err)
	}
	clk.Enter()
	syn := &Segment{SrcPort: 9, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 65536}
	b.input("hostA", encode(syn))
	b.mu.Lock()
	c := b.conns[connKey{80, "hostA", 9}]
	iss := c.iss
	b.mu.Unlock()
	finData := &Segment{
		SrcPort: 9, DstPort: 80, Seq: 101, Ack: iss + 1,
		Flags: FlagACK | FlagFIN, Window: 65536,
		Payload: iovec.FromBytes([]byte("bye")),
	}
	b.input("hostA", encode(finData))
	clk.Exit()
	buf := make([]byte, 8)
	n1, err := c.TryRead(buf)
	if err != nil || string(buf[:n1]) != "bye" {
		t.Fatalf("read %q, %v", buf[:n1], err)
	}
	n2, err := c.TryRead(buf)
	if n2 != 0 || err != nil {
		t.Fatalf("EOF read = %d, %v", n2, err)
	}
	if st := c.State(); st != StateCloseWait {
		t.Fatalf("state = %v, want CLOSE_WAIT", st)
	}
}

func TestOutOfOrderFINDeferredUntilGapFills(t *testing.T) {
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	if _, err := n.Host("hostA", netsim.Ethernet100()); err != nil {
		t.Fatal(err)
	}
	hb, _ := n.Host("hostB", netsim.Ethernet100())
	b := NewStack(hb, Config{})
	if _, err := b.Listen(80); err != nil {
		t.Fatal(err)
	}
	clk.Enter()
	b.input("hostA", encode(&Segment{SrcPort: 9, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 65536}))
	b.mu.Lock()
	c := b.conns[connKey{80, "hostA", 9}]
	iss := c.iss
	b.mu.Unlock()
	// FIN for seq 104 (after "data") arrives BEFORE the data segment.
	b.input("hostA", encode(&Segment{
		SrcPort: 9, DstPort: 80, Seq: 105, Ack: iss + 1,
		Flags: FlagACK | FlagFIN, Window: 65536,
	}))
	if c.State() == StateCloseWait {
		t.Fatal("FIN applied before the data gap filled")
	}
	b.input("hostA", encode(&Segment{
		SrcPort: 9, DstPort: 80, Seq: 101, Ack: iss + 1,
		Flags: FlagACK, Window: 65536,
		Payload: iovec.FromBytes([]byte("data")),
	}))
	clk.Exit()
	buf := make([]byte, 8)
	n1, _ := c.TryRead(buf)
	if string(buf[:n1]) != "data" {
		t.Fatalf("read %q", buf[:n1])
	}
	if n2, err := c.TryRead(buf); n2 != 0 || err != nil {
		t.Fatalf("EOF = %d %v", n2, err)
	}
	if st := c.State(); st != StateCloseWait {
		t.Fatalf("state = %v", st)
	}
}
