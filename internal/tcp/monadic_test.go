package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
)

func TestMonadicEchoRoundTrip(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	// Server: accept, echo until EOF, close.
	server := core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		buf := make([]byte, 512)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return c.CloseM()
				}
				return core.Then(send(c, buf[:n]), loop())
			})
		}
		return loop()
	})
	var reply string
	msg := []byte("monadic tcp echo")
	client := core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
		return core.Seq(send(c, msg), readFull(c, len(msg), &reply), c.CloseM())
	})
	w.run(t, server, client)
	if reply != "monadic tcp echo" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestMonadicConnectRefusedThrows(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	var caught error
	w.run(t, catch(w.a.ConnectM("hostB", 9), &caught))
	if !errors.Is(caught, ErrRefused) {
		t.Fatalf("caught %v", caught)
	}
}

func TestMonadicWriteVMZeroCopy(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("xyz"), 5000)
	var got []byte
	w.run(t,
		core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] { return readAll(c, 4096, &got) }),
		core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
			v := iovec.New(want[:7000], want[7000:])
			return core.Seq(c.WriteVM(v), c.CloseM())
		}),
	)
	if !bytes.Equal(got, want) {
		t.Fatalf("zero-copy monadic transfer: %d vs %d bytes", len(got), len(want))
	}
}

// One application of WriteCellVM queues whatever the cell holds each time
// its trace is re-entered (Loop caches its body's trace): messages bigger
// than the 2 KB send buffer (the send parks on OnSendReady, and the park
// trace built at the first full buffer serves the later ones), an empty
// one, a small one.
func TestWriteCellVMReentersPerMessage(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{SendBuf: 2048})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{bytes.Repeat([]byte("a"), 9000), {}, []byte("tail"), bytes.Repeat([]byte("b"), 5000)}
	var got []byte
	var sent []int
	w.run(t,
		core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] { return readAll(c, 4096, &got) }),
		core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
			out := msgs[0] // the send cell
			return core.Then(
				core.Loop(core.Map(c.WriteCellVM(&out), func(n int) bool {
					sent = append(sent, n)
					if len(sent) == len(msgs) {
						return false
					}
					out = msgs[len(sent)]
					return true
				})),
				c.CloseM())
		}),
	)
	if want := []int{9000, 0, 4, 5000}; !slices.Equal(sent, want) {
		t.Fatalf("send counts %v, want %v", sent, want)
	}
	if !bytes.Equal(got, bytes.Join(msgs, nil)) {
		t.Fatalf("received %d bytes, want the %d sent, in order", len(got), 9000+4+5000)
	}
}

// ReadFullM and WriteM each keep a cursor captured at application — the
// count received, the unsent suffix — and reset it when a message
// completes. RepeatN applies its body once and forces it again per
// iteration, so the second and third messages are right only because of
// that reset.
func TestReadFullMWriteMReenterPerMessage(t *testing.T) {
	t.Run("ReadFullM", func(t *testing.T) {
		w := newWorld(t, netsim.Ethernet100(), Config{})
		client, server := w.connectPair(t, 80)
		msgs := [][]byte{bytes.Repeat([]byte("a"), 3000), bytes.Repeat([]byte("b"), 3000), bytes.Repeat([]byte("c"), 3000)}
		buf := make([]byte, 3000)
		var got [][]byte
		w.run(t,
			send(client, bytes.Join(msgs, nil)),
			core.RepeatN(len(msgs), core.Map(server.ReadFullM(buf), func(n int) core.Unit {
				got = append(got, bytes.Clone(buf[:n]))
				return core.Unit{}
			})),
		)
		if !slices.EqualFunc(got, msgs, bytes.Equal) {
			var heads []string
			for _, m := range got {
				heads = append(heads, fmt.Sprintf("%d×%q", len(m), m[:min(len(m), 1)]))
			}
			t.Fatalf("received %v, want 3000×a, 3000×b, 3000×c", heads)
		}
	})
	t.Run("WriteM", func(t *testing.T) {
		// p is bigger than the send buffer, so every send parks mid-message.
		w := newWorld(t, netsim.Ethernet100(), Config{SendBuf: 2048})
		client, server := w.connectPair(t, 80)
		p := make([]byte, 5000)
		for i := range p {
			p[i] = byte(i * 131)
		}
		var sent []int
		var got []byte
		w.run(t,
			core.Then(core.RepeatN(3, core.Map(client.WriteM(p), func(n int) core.Unit {
				sent = append(sent, n)
				return core.Unit{}
			})), client.CloseM()),
			readAll(server, 4096, &got),
		)
		if want := []int{5000, 5000, 5000}; !slices.Equal(sent, want) {
			t.Fatalf("send counts %v, want %v", sent, want)
		}
		if !bytes.Equal(got, bytes.Repeat(p, 3)) {
			t.Fatalf("received %d bytes, want p three times (%d)", len(got), 3*len(p))
		}
	})
}

func TestMonadicReadThrowsOnReset(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var caught error
	w.run(t,
		core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
			return core.Do(c.Abort) // RST the client immediately
		}),
		catch(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[int] {
			return c.ReadM(make([]byte, 8))
		}), &caught),
	)
	if !errors.Is(caught, ErrConnReset) {
		t.Fatalf("caught %v", caught)
	}
}

func TestConnAccessors(t *testing.T) {
	w := newWorld(t, netsim.Ethernet100(), Config{})
	client, server := w.connectPair(t, 80)
	if client.RemoteAddr() != "hostB" || client.RemotePort() != 80 {
		t.Fatalf("client peer = %s:%d", client.RemoteAddr(), client.RemotePort())
	}
	if server.LocalPort() != 80 || server.RemoteAddr() != "hostA" {
		t.Fatalf("server view = :%d <- %s", server.LocalPort(), server.RemoteAddr())
	}
	if w.b.Addr() != "hostB" {
		t.Fatalf("stack addr = %s", w.b.Addr())
	}
	if k := (connKey{80, "hostA", client.LocalPort()}); k.String() == "" {
		t.Fatal("empty key string")
	}
}

func TestPersistTimerUnsticksZeroWindow(t *testing.T) {
	// The receiver reads nothing; the sender fills the window to zero and
	// must keep probing via the persist timer, then finish when the
	// reader finally drains.
	cfg := Config{RecvBuf: 2048, RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}
	w := newWorld(t, netsim.Ethernet100(), cfg)
	client, server := w.connectPair(t, 80)

	payload := make([]byte, 6*1024)
	var flight uint32
	var queued int
	var got []byte
	w.run(t,
		core.Seq(send(client, payload), client.CloseM()),
		core.Seq(
			// Let the sender stall against the zero window: nobody reads
			// for 200 virtual ms. The persist timer must be probing.
			core.Sleep(w.clk, 200*time.Millisecond),
			core.Do(func() {
				w.a.mu.Lock()
				flight, queued = client.flightLocked(), client.sndBuf.Len()
				w.a.mu.Unlock()
			}),
			// Now drain; the whole payload must arrive.
			readAll(server, 512, &got),
		),
	)
	if flight == 0 && queued == 0 {
		t.Fatal("sender finished without the receiver reading — window not enforced")
	}
	if len(got) != len(payload) {
		t.Fatalf("received %d of %d after zero-window stall", len(got), len(payload))
	}
}
