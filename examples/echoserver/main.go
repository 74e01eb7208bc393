// Echo server over the application-level TCP stack (paper §4.8).
//
// The entire transport — SYN handshake, sliding windows, retransmission,
// congestion control — runs inside the process over a simulated lossy
// Ethernet, and both the server and its clients are monadic threads. Run
// it and watch every client's round trip survive 5% packet loss.
//
//	go run ./examples/echoserver
package main

import (
	"fmt"
	"time"

	"hybrid"
	"hybrid/internal/core"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

func main() {
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 42)

	link := netsim.Ethernet100()
	link.LossProb = 0.05 // a lossy wire: TCP must retransmit

	hostS, err := net.Host("server", link)
	if err != nil {
		panic(err)
	}
	hostC, err := net.Host("client", link)
	if err != nil {
		panic(err)
	}
	cfg := tcp.Config{RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}
	server := tcp.NewStack(hostS, cfg)
	client := tcp.NewStack(hostC, cfg)

	rt := hybrid.NewRuntime(hybrid.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()

	l, err := server.Listen(7)
	if err != nil {
		panic(err)
	}

	// The accept loop forks one monadic thread per connection — the
	// paper's Figure 4 server, with the TCP stack as the event source.
	echoConn := func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
		buf := make([]byte, 2048)
		return hybrid.Forever(
			hybrid.Bind(c.ReadM(buf), func(n int) hybrid.M[hybrid.Unit] {
				if n == 0 {
					return hybrid.Then(c.CloseM(), hybrid.Halt[hybrid.Unit]())
				}
				return hybrid.Then(
					hybrid.Bind(c.WriteM(buf[:n]), func(int) hybrid.M[hybrid.Unit] {
						return hybrid.Skip
					}),
					hybrid.Skip,
				)
			}),
		)
	}
	rt.Spawn(hybrid.Forever(
		hybrid.Bind(l.AcceptM(), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
			return hybrid.Fork(echoConn(c))
		}),
	))

	// Clients: each opens a connection, sends a message, and checks the
	// echo. Exceptions (reset, timeout) are caught per client.
	const clients = 8
	wg := hybrid.NewWaitGroup(clients)
	for i := 0; i < clients; i++ {
		i := i
		msg := fmt.Sprintf("hello %d over lossy tcp", i)
		prog := hybrid.Catch(
			hybrid.Bind(client.ConnectM("server", 7), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
				buf := make([]byte, len(msg))
				return hybrid.Seq(
					hybrid.Bind(c.WriteM([]byte(msg)), func(int) hybrid.M[hybrid.Unit] { return hybrid.Skip }),
					hybrid.Bind(c.ReadFullM(buf), func(n int) hybrid.M[hybrid.Unit] {
						return hybrid.Do(func() {
							fmt.Printf("client %d echoed %q at %v\n", i, buf[:n], time.Duration(clk.Now()))
						})
					}),
					c.CloseM(),
				)
			}),
			func(err error) hybrid.M[hybrid.Unit] {
				return hybrid.Do(func() { fmt.Printf("client %d failed: %v\n", i, err) })
			},
		)
		rt.Spawn(core.Finally(prog, wg.Done()))
	}
	done := make(chan struct{})
	rt.Spawn(hybrid.Then(wg.Wait(), hybrid.Do(func() { close(done) })))
	<-done

	sent, delivered, dropped, _ := net.Stats()
	s := server.Metrics().Snapshot()
	fmt.Printf("\nwire: %d sent, %d delivered, %d dropped\n", sent, delivered, dropped)
	fmt.Printf("server stack: %d segs in, %d retransmits, %d fast retransmits\n",
		s.Counter("segs_in"), s.Counter("retransmits"), s.Counter("fast_retransmits"))
}
