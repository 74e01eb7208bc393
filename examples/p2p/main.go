// Peer-to-peer gossip overlay: the paper's introduction motivates the
// hybrid model with "peer-to-peer systems … [that] must accommodate tens
// of thousands of simultaneous, mostly-idle client connections."
//
// Here 64 nodes each run their own application-level TCP stack on a
// shared lossy network. Every node runs an accept loop (a monadic thread
// per inbound connection) and a gossip thread that periodically pushes
// everything it knows to random peers. A rumor injected at node 0
// epidemically reaches all nodes; the run reports propagation time in
// deterministic virtual time and the wire traffic it cost.
//
//	go run ./examples/p2p
package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hybrid"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
)

const (
	nodes      = 64
	fanout     = 2
	gossipTick = 20 * time.Millisecond
	rumor      = "the-answer-is-42"
	port       = 9000
)

type node struct {
	id    int
	stack *tcp.Stack
	knows atomic.Bool
	heard atomic.Int64 // times the rumor arrived
}

func addr(i int) string { return fmt.Sprintf("node-%d", i) }

func main() {
	clk := vclock.NewVirtual()
	net := netsim.New(clk, 2026)
	link := netsim.Ethernet100()
	link.LossProb = 0.02 // a slightly lossy overlay; TCP absorbs it

	rt := hybrid.NewRuntime(hybrid.Options{Clock: clk})
	defer rt.Shutdown()

	cfg := tcp.Config{RTOMin: 10 * time.Millisecond, InitialRTO: 20 * time.Millisecond}
	ns := make([]*node, nodes)
	for i := 0; i < nodes; i++ {
		host, err := net.Host(addr(i), link)
		if err != nil {
			panic(err)
		}
		ns[i] = &node{id: i, stack: tcp.NewStack(host, cfg)}
	}

	var informed atomic.Int64
	learn := func(n *node) {
		n.heard.Add(1)
		if n.knows.CompareAndSwap(false, true) {
			informed.Add(1)
		}
	}

	// Every long-lived thread is forked from one root thread (below), so
	// all of them start inside one clock event and a run is reproducible.
	var threads []hybrid.M[hybrid.Unit]

	// Accept loops: one monadic thread per node plus one per inbound
	// connection, exactly the paper's server shape.
	for _, n := range ns {
		n := n
		l, err := n.stack.Listen(port)
		if err != nil {
			panic(err)
		}
		threads = append(threads, hybrid.Forever(
			hybrid.Bind(l.AcceptM(), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
				return hybrid.Fork(hybrid.Catch(
					func() hybrid.M[hybrid.Unit] {
						buf := make([]byte, len(rumor))
						return hybrid.Bind(c.ReadFullM(buf), func(got int) hybrid.M[hybrid.Unit] {
							if got == len(rumor) && string(buf) == rumor {
								learn(n)
							}
							return c.CloseM()
						})
					}(),
					func(error) hybrid.M[hybrid.Unit] { return hybrid.Skip },
				))
			}),
		))
	}

	// Gossip threads: push what you know to fanout random peers per tick.
	for _, n := range ns {
		n := n
		rng := uint64(n.id)*0x9E3779B97F4A7C15 + 1
		next := func() int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % nodes)
		}
		push := func(peer int) hybrid.M[hybrid.Unit] {
			if peer == n.id {
				return hybrid.Skip
			}
			return hybrid.Catch(
				hybrid.Bind(n.stack.ConnectM(addr(peer), port), func(c *tcp.Conn) hybrid.M[hybrid.Unit] {
					return hybrid.Then(c.WriteVM(iovec.FromBytes([]byte(rumor))), c.CloseM())
				}),
				func(error) hybrid.M[hybrid.Unit] { return hybrid.Skip },
			)
		}
		threads = append(threads, hybrid.Forever(hybrid.Seq(
			hybrid.Sleep(clk, gossipTick),
			func() hybrid.M[hybrid.Unit] {
				return hybrid.Bind(hybrid.NBIO(func() bool { return n.knows.Load() }),
					func(knows bool) hybrid.M[hybrid.Unit] {
						if !knows {
							return hybrid.Skip
						}
						var round hybrid.M[hybrid.Unit] = hybrid.Skip
						for f := 0; f < fanout; f++ {
							round = hybrid.Seq(round, hybrid.Fork(push(next())))
						}
						return round
					})
			}(),
		)))
	}

	// Inject the rumor and watch it spread. The report is written inside
	// the clock event that finds every node informed: the overlay keeps
	// gossiping afterwards, so a read from the host would race it.
	learn(ns[0])
	start := clk.Now()
	var report strings.Builder
	done := make(chan struct{})
	summarize := func() {
		var rtx, redundant int64
		for _, n := range ns {
			s := n.stack.Metrics().Snapshot()
			rtx += s.Counter("retransmits") + s.Counter("fast_retransmits")
			redundant += n.heard.Load()
		}
		sent, delivered, dropped, _ := net.Stats()
		elapsed := time.Duration(clk.Now() - start)
		fmt.Fprintf(&report, "nodes informed:   %d/%d in %v virtual (fanout %d, tick %v)\n",
			informed.Load(), nodes, elapsed.Round(time.Millisecond), fanout, gossipTick)
		fmt.Fprintf(&report, "rumor deliveries: %d (%.1fx redundancy, the price of epidemics)\n",
			redundant, float64(redundant)/float64(nodes))
		fmt.Fprintf(&report, "wire:             %d packets sent, %d delivered, %d lost; %d TCP retransmits\n",
			sent, delivered, dropped, rtx)
		// The watcher running this is not counted.
		fmt.Fprintf(&report, "threads live:     %d across %d TCP stacks\n", rt.Live()-1, nodes)
		close(done)
	}
	threads = append(threads, hybrid.Forever(hybrid.Seq(
		hybrid.Sleep(clk, gossipTick),
		hybrid.Bind(hybrid.NBIO(func() bool { return informed.Load() == nodes }),
			func(all bool) hybrid.M[hybrid.Unit] {
				if all {
					return hybrid.Then(hybrid.Do(summarize), hybrid.Halt[hybrid.Unit]())
				}
				return hybrid.Skip
			}),
	)))
	rt.Spawn(hybrid.ForEach(threads, hybrid.Fork))
	<-done
	fmt.Print(report.String())
}
