// Package tracecheck is the packet-trace conformance harness for the
// application-level TCP stack: a Scenario scripts one connection over the
// deterministic netsim with an exact per-direction loss pattern, records
// every segment either end transmits as a normalized text line — direction,
// flags, relative seq/ack, payload length, advertised window, SACK blocks,
// and the sender's congestion window at transmission time — and the tests
// compare the full trace byte-for-byte against a committed golden file.
//
// Because packet delivery, loss (netsim.PathSpec drop indices or seeded
// probabilistic draws), and every timer run on the virtual clock, a
// recovery episode is exactly replayable: any change to retransmission
// order, ACK generation, SACK block contents, or congestion-window
// arithmetic shows up as a golden diff. Scenarios drive the user side of
// the connection from clock callbacks through the nonblocking Try*/On*
// API, never from goroutines, so there is no host-scheduled actor anywhere
// and the trace is byte-identical at any GOMAXPROCS.
package tracecheck

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/stats"
	"hybrid/internal/tcp"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// Scenario is one scripted connection: a client on host C transfers
// SendBytes to a server on host S under the given link and loss pattern,
// then closes; the server drains to EOF and closes back.
type Scenario struct {
	// Name keys the golden file (testdata/<Name>.golden).
	Name string
	// Cfg configures both stacks (zero value = the stack's defaults:
	// plain Reno, no SACK).
	Cfg tcp.Config
	// Link shapes both hosts' egress links; zero value uses Ethernet100.
	Link netsim.LinkParams
	// Seed is the netsim RNG seed (reorder jitter and probabilistic loss
	// draws).
	Seed int64
	// DropC2S and DropS2C are exact per-direction packet indices to drop
	// (0-based, counting every transmission on the path — the client's
	// SYN is C→S packet 0).
	DropC2S, DropS2C []uint64
	// SendBytes is the client→server transfer size.
	SendBytes int
}

// Result is everything a conformance run observes: the normalized trace,
// each stack's counters at quiescence, and the virtual time at which the
// network went quiet. All of it is a pure function of the Scenario, so
// tests may pin any field exactly.
type Result struct {
	// Lines is the normalized trace, one line per transmitted segment.
	Lines []string
	// Client and Server are the stacks' counter snapshots at quiescence.
	Client, Server stats.Snapshot
	// Elapsed is the virtual time from scenario start to quiescence.
	Elapsed time.Duration
	// Done is the virtual time at which the server observed end of
	// stream — the transfer's completion, before close handshakes and the
	// 2*MSL TIME_WAIT drain that Elapsed includes. Goodput comparisons
	// (bench.Fig20Loss) divide by Done.
	Done time.Duration
	// RecvHash is FNV-1a over the bytes the server read, in stream order:
	// two runs delivered the same stream iff the hashes match.
	RecvHash uint64
}

// event is one recorded transmission.
type event struct {
	fromClient bool
	flags      tcp.Flags
	seq, ack   uint32
	length     int
	window     uint32
	sack       []tcp.SackBlock
	cwnd       uint32
	rexmit     bool
}

// Run executes the scenario to quiescence and returns what it observed.
func Run(s Scenario) (Result, error) {
	link := s.Link
	if link == (netsim.LinkParams{}) {
		link = netsim.Ethernet100()
	}
	clk := vclock.NewVirtual()
	n := netsim.New(clk, s.Seed)
	hc, err := n.Host("client", link)
	if err != nil {
		return Result{}, err
	}
	hs, err := n.Host("server", link)
	if err != nil {
		return Result{}, err
	}
	if len(s.DropC2S) > 0 {
		n.SetPath("client", "server", netsim.PathSpec{DropSeq: s.DropC2S})
	}
	if len(s.DropS2C) > 0 {
		n.SetPath("server", "client", netsim.PathSpec{DropSeq: s.DropS2C})
	}
	client := tcp.NewStack(hc, s.Cfg)
	server := tcp.NewStack(hs, s.Cfg)

	var events []event
	tap := func(fromClient bool) func(tcp.TraceEvent) {
		return func(ev tcp.TraceEvent) {
			events = append(events, event{
				fromClient: fromClient,
				flags:      ev.Seg.Flags,
				seq:        ev.Seg.Seq,
				ack:        ev.Seg.Ack,
				length:     ev.Seg.Payload.Len(),
				window:     ev.Seg.Window,
				sack:       append([]tcp.SackBlock(nil), ev.Seg.Sack...),
				cwnd:       ev.Cwnd,
				rexmit:     ev.Rexmit,
			})
		}
	}
	client.SetTrace(tap(true))
	server.SetTrace(tap(false))

	l, err := server.Listen(80)
	if err != nil {
		return Result{}, err
	}
	var runErr error
	fail := func(err error) {
		if runErr == nil && err != nil {
			runErr = err
		}
	}

	// The whole timeline runs inside one Enter/Exit bracket: every user
	// action below happens in the clock's event context, chained off
	// ready hooks, so ordering is a pure function of the event timeline.
	clk.Enter()

	// Server side: accept, drain to EOF, close.
	received := 0
	var doneAt vclock.Time
	recvHash := uint64(14695981039346656037) // FNV-1a offset basis
	l.OnAcceptable(&waitq.Waiter{Target: wakeFunc(func() {
		conn, err := l.TryAccept()
		if err != nil {
			fail(fmt.Errorf("accept: %w", err))
			return
		}
		buf := make([]byte, 4096)
		var ready waitq.Waiter
		pump := func() {
			for {
				n, err := conn.TryRead(buf)
				if errors.Is(err, tcp.ErrWouldBlock) {
					conn.OnRecvReady(&ready)
					return
				}
				if err != nil {
					fail(fmt.Errorf("server read: %w", err))
					return
				}
				if n == 0 { // EOF
					doneAt = clk.Now()
					conn.Close()
					return
				}
				for _, b := range buf[:n] {
					recvHash ^= uint64(b)
					recvHash *= 1099511628211 // FNV-1a prime
				}
				received += n
			}
		}
		ready.Target = wakeFunc(pump)
		pump()
	})})

	// Client side: connect, write the payload, close.
	conn, err := client.Connect("server", 80)
	if err != nil {
		clk.Exit()
		return Result{}, err
	}
	payload := make([]byte, s.SendBytes)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	conn.OnEstablished(&waitq.Waiter{Target: wakeFunc(func() {
		if err := conn.Err(); err != nil {
			fail(fmt.Errorf("connect: %w", err))
			return
		}
		// The payload is never mutated, so the stack may hold it.
		rest := iovec.FromBytes(payload)
		var ready waitq.Waiter
		pump := func() {
			for !rest.Empty() {
				n, err := conn.TryWriteV(rest)
				if errors.Is(err, tcp.ErrWouldBlock) {
					conn.OnSendReady(&ready)
					return
				}
				if err != nil {
					fail(fmt.Errorf("client write: %w", err))
					return
				}
				rest = rest.Drop(n)
			}
			conn.Close()
		}
		ready.Target = wakeFunc(pump)
		pump()
	})})

	clk.Exit() // run the timeline to quiescence

	if runErr != nil {
		return Result{}, runErr
	}
	if received != s.SendBytes {
		return Result{}, fmt.Errorf("server received %d of %d bytes", received, s.SendBytes)
	}
	return Result{
		Lines:    format(events),
		Client:   client.Metrics().Snapshot(),
		Server:   server.Metrics().Snapshot(),
		Elapsed:  time.Duration(clk.Now()),
		Done:     time.Duration(doneAt),
		RecvHash: recvHash,
	}, nil
}

// format renders events with sequence numbers relative to each side's ISS
// (taken from the SYNs in the trace itself), so goldens do not depend on
// the stacks' ISN generator.
func format(events []event) []string {
	var issC, issS uint32
	for _, e := range events {
		if e.flags&tcp.FlagSYN != 0 && !e.rexmit {
			if e.fromClient {
				issC = e.seq
			} else {
				issS = e.seq
			}
		}
	}
	lines := make([]string, 0, len(events))
	for _, e := range events {
		dir, isr := "C>S", issS
		iss := issC
		if !e.fromClient {
			dir, iss, isr = "S>C", issS, issC
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %-4s seq=%-6d", dir, e.flags, e.seq-iss)
		if e.flags&tcp.FlagACK != 0 {
			fmt.Fprintf(&b, " ack=%-6d", e.ack-isr)
		} else {
			fmt.Fprintf(&b, " ack=%-6s", "-")
		}
		fmt.Fprintf(&b, " len=%-5d wnd=%-6d cwnd=%d", e.length, e.window, e.cwnd)
		if len(e.sack) > 0 {
			parts := make([]string, len(e.sack))
			for i, blk := range e.sack {
				parts[i] = fmt.Sprintf("%d-%d", blk.Start-isr, blk.End-isr)
			}
			fmt.Fprintf(&b, " sack=[%s]", strings.Join(parts, ","))
		}
		if e.rexmit {
			b.WriteString(" rexmit")
		}
		lines = append(lines, b.String())
	}
	return lines
}

// wakeFunc is a callback as a waiter's target: the scenario's user side
// runs in the ready hooks' wakes, on the clock.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }
