package tcp

import (
	"bytes"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
)

// monadicWorld runs both TCP endpoints inside one hybrid runtime — the
// paper's actual configuration (§4.8): TCP operations as system calls
// made by monadic threads.
func monadicWorld(t *testing.T, link netsim.LinkParams, cfg Config) (*world, *core.Runtime) {
	t.Helper()
	w := newWorld(t, link, cfg)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: w.clk})
	t.Cleanup(rt.Shutdown)
	return w, rt
}

func TestMonadicEchoRoundTrip(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	// Server: accept, echo until EOF, close.
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		buf := make([]byte, 512)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return c.CloseM()
				}
				return core.Then(
					core.Bind(c.WriteM(buf[:n]), func(int) core.M[core.Unit] { return core.Skip }),
					loop(),
				)
			})
		}
		return loop()
	}))
	var reply atomic.Value
	done := make(chan struct{})
	rt.Spawn(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
		msg := []byte("monadic tcp echo")
		buf := make([]byte, len(msg))
		return core.Seq(
			core.Bind(c.WriteM(msg), func(int) core.M[core.Unit] { return core.Skip }),
			core.Bind(c.ReadFullM(buf), func(n int) core.M[core.Unit] {
				return core.Do(func() { reply.Store(string(buf[:n])) })
			}),
			c.CloseM(),
			core.Do(func() { close(done) }),
		)
	}))
	<-done
	if reply.Load() != "monadic tcp echo" {
		t.Fatalf("reply = %v", reply.Load())
	}
}

func TestMonadicConnectRefusedThrows(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	var caught atomic.Value
	done := make(chan struct{})
	rt.Spawn(core.Catch(
		core.Then(
			core.Bind(w.a.ConnectM("hostB", 9), func(*Conn) core.M[core.Unit] { return core.Skip }),
			core.Skip,
		),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(err); close(done) })
		},
	))
	<-done
	if err, _ := caught.Load().(error); !errors.Is(err, ErrRefused) {
		t.Fatalf("caught %v", caught.Load())
	}
}

func TestMonadicWriteVMZeroCopy(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("xyz"), 5000)
	var got []byte
	done := make(chan struct{})
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		buf := make([]byte, 4096)
		var loop func() core.M[core.Unit]
		loop = func() core.M[core.Unit] {
			return core.Bind(c.ReadM(buf), func(n int) core.M[core.Unit] {
				if n == 0 {
					return core.Do(func() { close(done) })
				}
				got = append(got, buf[:n]...)
				return loop()
			})
		}
		return loop()
	}))
	rt.Spawn(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
		v := iovec.New(want[:7000], want[7000:])
		return core.Seq(c.WriteVM(v), c.CloseM())
	}))
	<-done
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
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{SendBuf: 2048})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{bytes.Repeat([]byte("a"), 9000), {}, []byte("tail"), bytes.Repeat([]byte("b"), 5000)}
	var got []byte
	done := make(chan struct{})
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		buf := make([]byte, 4096)
		return core.Then(
			core.Loop(core.Map(c.ReadM(buf), func(n int) bool {
				got = append(got, buf[:n]...)
				return n > 0
			})),
			core.Do(func() { close(done) }))
	}))
	var sent []int
	rt.Spawn(core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
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
	}))
	<-done
	if want := []int{9000, 0, 4, 5000}; !slices.Equal(sent, want) {
		t.Fatalf("send counts %v, want %v", sent, want)
	}
	if !bytes.Equal(got, bytes.Join(msgs, nil)) {
		t.Fatalf("received %d bytes, want the %d sent, in order", len(got), 9000+4+5000)
	}
}

func TestMonadicReadThrowsOnReset(t *testing.T) {
	w, rt := monadicWorld(t, netsim.Ethernet100(), Config{})
	l, err := w.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn(core.Bind(l.AcceptM(), func(c *Conn) core.M[core.Unit] {
		return core.Do(c.Abort) // RST the client immediately
	}))
	var caught atomic.Value
	done := make(chan struct{})
	rt.Spawn(core.Catch(
		core.Bind(w.a.ConnectM("hostB", 80), func(c *Conn) core.M[core.Unit] {
			return core.Bind(c.ReadM(make([]byte, 8)), func(int) core.M[core.Unit] {
				return core.Skip
			})
		}),
		func(err error) core.M[core.Unit] {
			return core.Do(func() { caught.Store(err); close(done) })
		},
	))
	<-done
	if err, _ := caught.Load().(error); !errors.Is(err, ErrConnReset) {
		t.Fatalf("caught %v", caught.Load())
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
	written := make(chan error, 1)
	w.a.Go(func() {
		_, err := client.Write(payload)
		written <- err
		client.Close()
	})
	// Let the sender stall against the zero window: run the clock for a
	// while with nobody reading. The persist timer must be probing.
	probeWait := make(chan struct{})
	w.clk.After(200*time.Millisecond, func() { close(probeWait) })
	<-probeWait
	w.a.mu.Lock()
	flight := client.flightLocked()
	queued := client.sndBuf.Len()
	w.a.mu.Unlock()
	if flight == 0 && queued == 0 {
		t.Fatal("sender finished without the receiver reading — window not enforced")
	}
	// Now drain; the whole payload must arrive.
	var got int
	var wg2 = make(chan struct{})
	w.b.Go(func() {
		defer close(wg2)
		buf := make([]byte, 512)
		for {
			n, err := server.Read(buf)
			if err != nil || n == 0 {
				return
			}
			got += n
		}
	})
	if err := <-written; err != nil {
		t.Fatalf("write: %v", err)
	}
	<-wg2
	if got != len(payload) {
		t.Fatalf("received %d of %d after zero-window stall", got, len(payload))
	}
}
