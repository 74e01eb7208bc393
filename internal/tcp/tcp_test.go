package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/vclock"
)

// world is a two-host network with a TCP stack on each end. Goroutines
// that use the blocking API are spawned with Stack.Go so the virtual
// clock cannot run ahead of them (see api.go).
type world struct {
	clk    *vclock.VirtualClock
	net    *netsim.Network
	a, b   *Stack
	ha, hb *netsim.Host
}

func newWorld(t *testing.T, link netsim.LinkParams, cfg Config) *world {
	t.Helper()
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 7)
	ha, err := n.Host("hostA", link)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.Host("hostB", link)
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		clk: clk, net: n, ha: ha, hb: hb,
		a: NewStack(ha, cfg),
		b: NewStack(hb, cfg),
	}
}

// connectPair establishes a client connection from a to a listener on b.
func (w *world) connectPair(t *testing.T, port uint16) (client, server *Conn) {
	t.Helper()
	l, err := w.b.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var cerr, serr error
	wg.Add(2)
	goWait(w.b, &wg, func() {
		server, serr = l.Accept()
	})
	goWait(w.a, &wg, func() {
		client, cerr = w.a.ConnectBlocking("hostB", port)
	})
	wg.Wait()
	if cerr != nil {
		t.Fatalf("connect: %v", cerr)
	}
	if serr != nil {
		t.Fatalf("accept: %v", serr)
	}
	return client, server
}

// goWait is Stack.Go for a goroutine the test waits for on wg: it signals
// wg only once the goroutine has given back its hold on the clock. Spelled
// s.Go(func() { defer wg.Done(); … }) the signal comes first, so wg.Wait()
// can return while that goroutine is still inside Exit, running the
// clock's dispatch loop — and a settle() that follows finds the loop
// running, returns without firing anything, and the test asserts on a
// network that has not settled.
func goWait(s *Stack, wg *sync.WaitGroup, fn func()) {
	s.clock.Enter()
	go func() {
		defer wg.Done()
		defer s.clock.Exit()
		fn()
	}()
}

// settle drives the network to quiescence.
func (w *world) settle() {
	w.clk.Enter()
	w.clk.Exit()
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
	var wg sync.WaitGroup
	wg.Add(1)
	goWait(w.a, &wg, func() {
		_, err = w.a.ConnectBlocking("hostB", 81) // nobody listening
	})
	wg.Wait()
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want refused", err)
	}
}

func TestSimpleTransfer(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		client.Write([]byte("hello tcp"))
		client.Close()
	})
	var got string
	var eofN int
	var eofErr error
	goWait(w.b, &wg, func() {
		buf := make([]byte, 64)
		n, err := server.ReadFull(buf[:9])
		if err != nil {
			eofErr = err
			return
		}
		got = string(buf[:n])
		eofN, eofErr = server.Read(buf)
	})
	wg.Wait()
	if got != "hello tcp" {
		t.Fatalf("read %q", got)
	}
	if eofN != 0 || eofErr != nil {
		t.Fatalf("EOF read = %d, %v", eofN, eofErr)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.b, &wg, func() {
		buf := make([]byte, 16)
		n, _ := server.ReadFull(buf[:4])
		server.Write(bytes.ToUpper(buf[:n]))
		server.Close()
	})
	var reply string
	goWait(w.a, &wg, func() {
		client.Write([]byte("ping"))
		buf := make([]byte, 16)
		n, err := client.ReadFull(buf[:4])
		if err == nil {
			reply = string(buf[:n])
		}
	})
	wg.Wait()
	if reply != "PING" {
		t.Fatalf("reply %q", reply)
	}
}

// transfer runs one client→server bulk transfer and verifies integrity.
func transfer(t *testing.T, w *world, client, server *Conn, size int) (vclock.Time, Stats, Stats) {
	t.Helper()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		client.Write(payload)
		client.Close()
	})
	var got []byte
	var rerr error
	goWait(w.b, &wg, func() {
		buf := make([]byte, 8192)
		for {
			n, err := server.Read(buf)
			if err != nil {
				rerr = err
				return
			}
			if n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	})
	wg.Wait()
	if rerr != nil {
		t.Fatalf("server read: %v", rerr)
	}
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
	// An 8 KB receive buffer forces constant window-limited operation.
	transferOnce(t, netsim.Ethernet100(), Config{RecvBuf: 8 * 1024}, 256*1024)
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
		clk := vclock.NewVirtual()
		n := netsim.New(clk, int64(lossP)*7919+int64(reorderP))
		ha, _ := n.Host("hostA", link)
		hb, _ := n.Host("hostB", link)
		a, b := NewStack(ha, cfg), NewStack(hb, cfg)
		l, err := b.Listen(80)
		if err != nil {
			return false
		}
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + 13)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var got []byte
		ok := true
		goWait(b, &wg, func() {
			s, err := l.Accept()
			if err != nil {
				ok = false
				return
			}
			buf := make([]byte, 4096)
			for {
				n, err := s.Read(buf)
				if err != nil || n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
		})
		goWait(a, &wg, func() {
			client, err := a.ConnectBlocking("hostB", 80)
			if err != nil {
				ok = false
				l.Close() // unblock the accept side
				return
			}
			client.Write(payload)
			client.Close()
		})
		wg.Wait()
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
			hb.Send(src, (&Segment{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Seq: serverISS, Ack: seg.Seq + 1,
				Flags: FlagSYN | FlagACK, Window: 65536,
			}).Encode())
		case seg.Flags&FlagFIN != 0:
			// ACK the FIN, then send our own FIN.
			hb.Send(src, (&Segment{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Seq: serverISS + 1, Ack: seg.Seq + 1,
				Flags: FlagACK, Window: 65536,
			}).Encode())
			hb.Send(src, (&Segment{
				SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Seq: serverISS + 1, Ack: seg.Seq + 1,
				Flags: FlagFIN | FlagACK, Window: 65536,
			}).Encode())
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
	cfg := Config{MSL: 10 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
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
	cfg := Config{MSL: 10 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)
	// Close both ends while the clock is held so the FINs cross in
	// flight (simultaneous close → CLOSING → TIME_WAIT).
	w.clk.Enter()
	client.Close()
	server.Close()
	w.clk.Exit()
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
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.b, &wg, func() {
		server.Write([]byte("late data"))
		server.Close()
	})
	var got string
	goWait(w.a, &wg, func() {
		buf := make([]byte, 16)
		n, err := client.ReadFull(buf[:9])
		if err == nil {
			got = string(buf[:n])
		}
	})
	wg.Wait()
	if got != "late data" {
		t.Fatalf("half-close read %q", got)
	}
}

func TestZeroWindowAndReopen(t *testing.T) {
	// A tiny receive buffer and a slow reader force a zero-window stall;
	// the window-update path must unstick the sender.
	cfg := Config{RecvBuf: 2048, RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)
	payload := make([]byte, 64*1024)
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		client.Write(payload)
		client.Close()
	})
	var got int
	goWait(w.b, &wg, func() {
		buf := make([]byte, 512)
		for {
			n, err := server.Read(buf)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
	})
	wg.Wait()
	if got != len(payload) {
		t.Fatalf("received %d of %d through zero-window stalls", got, len(payload))
	}
}

func TestRetransmitTimeoutGivesUp(t *testing.T) {
	link := netsim.Ethernet100()
	link.LossProb = 1.0 // black hole
	cfg := Config{InitialRTO: 5 * time.Millisecond, RTOMin: 5 * time.Millisecond, MaxRetries: 3}
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	ha, _ := n.Host("hostA", link)
	if _, err := n.Host("hostB", link); err != nil {
		t.Fatal(err)
	}
	a := NewStack(ha, cfg)
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	goWait(a, &wg, func() {
		_, err = a.ConnectBlocking("hostB", 80)
	})
	wg.Wait()
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
	var wg sync.WaitGroup
	wg.Add(1)
	goWait(w.b, &wg, func() {
		for i := 0; i < conns; i++ {
			s, err := l.Accept()
			if err != nil {
				return
			}
			w.b.Go(func() {
				buf := make([]byte, 1024)
				for {
					n, err := s.Read(buf)
					if n == 0 || err != nil {
						s.Close()
						return
					}
					s.Write(buf[:n])
				}
			})
		}
	})
	results := make(chan error, conns)
	for i := 0; i < conns; i++ {
		i := i
		w.a.Go(func() {
			c, err := w.a.ConnectBlocking("hostB", 80)
			if err != nil {
				results <- err
				return
			}
			msg := []byte(fmt.Sprintf("conn-%d", i))
			c.Write(msg)
			buf := make([]byte, 64)
			n, err := c.ReadFull(buf[:len(msg)])
			if err != nil {
				results <- err
				return
			}
			if !bytes.Equal(buf[:n], msg) {
				results <- fmt.Errorf("echo mismatch: %q", buf[:n])
				return
			}
			c.Close()
			results <- nil
		})
	}
	for i := 0; i < conns; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, _ := w.b.Listen(99)
	done := make(chan error, 1)
	w.b.Go(func() {
		_, err := l.Accept()
		done <- err
	})
	l.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
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
	b.input("hostA", syn.Encode())
	b.mu.Lock()
	c := b.conns[connKey{80, "hostA", 5000}]
	iss := c.iss
	b.mu.Unlock()
	if c.State() != StateSynRcvd {
		t.Fatalf("state after SYN = %v", c.State())
	}
	data := &Segment{SrcPort: 5000, DstPort: 80, Seq: 101, Ack: iss + 1,
		Flags: FlagACK, Window: 65536, Payload: iovec.FromBytes([]byte("hello"))}
	b.input("hostA", data.Encode())
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
		d, err := Decode(s.Encode())
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
	buf := s.Encode()
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
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		if err := client.WriteV(v); err != nil {
			t.Errorf("WriteV: %v", err)
		}
		client.Close()
	})
	var got []byte
	goWait(w.b, &wg, func() {
		buf := make([]byte, 4096)
		for {
			n, err := server.Read(buf)
			if err != nil || n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	})
	wg.Wait()
	if !bytes.Equal(got, want) {
		t.Fatalf("zero-copy transfer corrupted: %d vs %d bytes", len(got), len(want))
	}
}

func TestWriteVTooLargeBlocksUntilDrained(t *testing.T) {
	cfg := Config{SendBuf: 8 * 1024}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)
	big := iovec.FromBytes(make([]byte, 32*1024))
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		if err := client.WriteV(big); err != nil {
			t.Errorf("WriteV: %v", err)
		}
		client.Close()
	})
	var got int
	goWait(w.b, &wg, func() {
		buf := make([]byte, 4096)
		for {
			n, err := server.Read(buf)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
	})
	wg.Wait()
	if got != 32*1024 {
		t.Fatalf("received %d of %d", got, 32*1024)
	}
}

// --- Protocol extensions: delayed ACK (RFC 1122) and Nagle (RFC 896) ---

func TestDelayedAckReducesPureAcks(t *testing.T) {
	// Stream the same data with and without delayed ACKs: the receiver
	// must emit measurably fewer segments when delaying.
	segsOut := func(delack time.Duration) uint64 {
		cfg := Config{DelayedAck: delack}
		_, _, sb := transferOnce(t, netsim.Ethernet100(), cfg, 256*1024)
		return sb.SegsOut
	}
	immediate := segsOut(0)
	delayed := segsOut(20 * time.Millisecond)
	if !(delayed < immediate*9/10) {
		t.Fatalf("delayed ACK did not reduce receiver segments: %d vs %d", delayed, immediate)
	}
}

func TestDelayedAckTimerFiresForLoneSegment(t *testing.T) {
	// A single small segment with no follow-up must still be ACKed —
	// by the delack timer — so the sender's RTO never fires.
	cfg := Config{DelayedAck: 10 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		client.Write([]byte("x"))
	})
	var got int
	goWait(w.b, &wg, func() {
		buf := make([]byte, 4)
		got, _ = server.Read(buf)
	})
	wg.Wait()
	w.settle()
	if got != 1 {
		t.Fatalf("read %d", got)
	}
	if s := w.a.Snapshot(); s.Retransmits != 0 {
		t.Fatalf("sender retransmitted %d times waiting for a delayed ACK", s.Retransmits)
	}
	// The data must be acknowledged after the delack fires.
	w.a.mu.Lock()
	flight := client.flightLocked()
	w.a.mu.Unlock()
	if flight != 0 {
		t.Fatalf("data still unacknowledged: flight=%d", flight)
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	segsFor := func(nagle bool) uint64 {
		cfg := Config{Nagle: nagle}
		w := newWorld(t, netsim.Ethernet100(), cfg)
		client, server := w.connectPair(t, 80)
		var wg sync.WaitGroup
		wg.Add(2)
		goWait(w.a, &wg, func() {
			// Many tiny writes while the clock is held: with Nagle they
			// coalesce behind the first in-flight runt.
			w.clk.Enter()
			for i := 0; i < 50; i++ {
				client.TryWrite([]byte("0123456789"))
			}
			w.clk.Exit()
			client.Close()
		})
		var got int
		goWait(w.b, &wg, func() {
			buf := make([]byte, 4096)
			for {
				n, err := server.Read(buf)
				if err != nil || n == 0 {
					return
				}
				got += n
			}
		})
		wg.Wait()
		if got != 500 {
			t.Fatalf("nagle=%v: received %d of 500", nagle, got)
		}
		s := w.a.Snapshot()
		return s.SegsOut
	}
	with := segsFor(true)
	without := segsFor(false)
	if !(with < without/2) {
		t.Fatalf("Nagle did not coalesce: %d segments with, %d without", with, without)
	}
}

func TestNagleFlushesOnClose(t *testing.T) {
	cfg := Config{Nagle: true}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)
	var wg sync.WaitGroup
	wg.Add(2)
	goWait(w.a, &wg, func() {
		w.clk.Enter()
		client.TryWrite([]byte("abc"))
		client.TryWrite([]byte("def")) // runt held behind the first
		w.clk.Exit()
		client.Close() // must flush the held runt before the FIN
	})
	var got []byte
	goWait(w.b, &wg, func() {
		buf := make([]byte, 64)
		for {
			n, err := server.Read(buf)
			if err != nil || n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	})
	wg.Wait()
	if string(got) != "abcdef" {
		t.Fatalf("got %q", got)
	}
}

func TestListenerBacklogDropsSYNFloods(t *testing.T) {
	cfg := Config{Backlog: 4}
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	if _, err := n.Host("hostA", netsim.Ethernet100()); err != nil {
		t.Fatal(err)
	}
	hb, _ := n.Host("hostB", netsim.Ethernet100())
	b := NewStack(hb, cfg)
	if _, err := b.Listen(80); err != nil {
		t.Fatal(err)
	}
	// Flood bare SYNs from distinct fake ports; none complete a
	// handshake, so the embryonic queue fills and the rest are dropped.
	clk.Enter()
	for p := uint16(1); p <= 20; p++ {
		syn := &Segment{SrcPort: p, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 65536}
		b.input("hostA", syn.Encode())
	}
	b.mu.Lock()
	embryonic := len(b.conns)
	dropped := b.stats.SynsDropped.Load()
	b.mu.Unlock()
	clk.Exit()
	if embryonic != 4 {
		t.Fatalf("embryonic conns = %d, want backlog 4", embryonic)
	}
	if dropped != 16 {
		t.Fatalf("SynsDropped = %d, want 16", dropped)
	}
}

func TestBacklogSlotReleasedOnEstablish(t *testing.T) {
	// Completing handshakes must free pending slots so a server can
	// accept far more connections than its backlog over time.
	cfg := Config{Backlog: 2}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	var wg sync.WaitGroup
	wg.Add(1)
	goWait(w.b, &wg, func() {
		for i := 0; i < total; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			c.Close()
		}
	})
	for i := 0; i < total; i++ {
		var cwg sync.WaitGroup
		cwg.Add(1)
		goWait(w.a, &cwg, func() {
			c, err := w.a.ConnectBlocking("hostB", 80)
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			c.Close()
		})
		cwg.Wait()
	}
	wg.Wait()
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
	b.input("hostA", syn.Encode())
	b.mu.Lock()
	c := b.conns[connKey{80, "hostA", 9}]
	iss := c.iss
	b.mu.Unlock()
	finData := &Segment{
		SrcPort: 9, DstPort: 80, Seq: 101, Ack: iss + 1,
		Flags: FlagACK | FlagFIN, Window: 65536,
		Payload: iovec.FromBytes([]byte("bye")),
	}
	b.input("hostA", finData.Encode())
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
	b.input("hostA", (&Segment{SrcPort: 9, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 65536}).Encode())
	b.mu.Lock()
	c := b.conns[connKey{80, "hostA", 9}]
	iss := c.iss
	b.mu.Unlock()
	// FIN for seq 104 (after "data") arrives BEFORE the data segment.
	b.input("hostA", (&Segment{
		SrcPort: 9, DstPort: 80, Seq: 105, Ack: iss + 1,
		Flags: FlagACK | FlagFIN, Window: 65536,
	}).Encode())
	if c.State() == StateCloseWait {
		t.Fatal("FIN applied before the data gap filled")
	}
	b.input("hostA", (&Segment{
		SrcPort: 9, DstPort: 80, Seq: 101, Ack: iss + 1,
		Flags: FlagACK, Window: 65536,
		Payload: iovec.FromBytes([]byte("data")),
	}).Encode())
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
