package tcp

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/faults"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// Errors surfaced to users of the stack.
var (
	// ErrWouldBlock reports that a nonblocking operation cannot proceed;
	// wait on the corresponding ready hook and retry.
	ErrWouldBlock = errors.New("tcp: operation would block")
	// ErrConnReset reports an RST from the peer.
	ErrConnReset = errors.New("tcp: connection reset by peer")
	// ErrRefused reports that the remote had no listener on the port.
	ErrRefused = errors.New("tcp: connection refused")
	// ErrTimeout reports that retransmission gave up.
	ErrTimeout = errors.New("tcp: connection timed out")
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("tcp: use of closed connection")
	// ErrAddrInUse reports a duplicate listen port.
	ErrAddrInUse = errors.New("tcp: port already in use")
)

// MSS is the maximum segment payload, and initialCwnd the initial
// congestion window in segments (RFC 5681's conservative 2). bufSize
// bounds each connection's send and receive buffering, rtoMax caps the
// retransmission timer (RFC 6298), a connection stays in TIME_WAIT for
// 2*msl, and maxBacklog caps, per listener, the connections mid-handshake or
// accepted but unclaimed: SYNs beyond it are dropped and the client
// retries, as under SYN-queue pressure on a real stack. Every harness runs
// these values, so they are constants, not Config fields.
const (
	MSS         = 1460
	initialCwnd = 2
	bufSize     = 64 * 1024
	rtoMax      = 60 * time.Second
	msl         = 30 * time.Second
	maxBacklog  = 128
)

// Config tunes the stack.
type Config struct {
	// InitialRTO is the retransmission timeout before the first RTT
	// sample and RTOMin its floor (rtoMax caps it). Defaults 1s / 200ms
	// (RFC 6298).
	InitialRTO, RTOMin time.Duration
	// MaxRetries bounds consecutive retransmissions of one segment
	// before the connection errors with ErrTimeout. Default 8.
	MaxRetries int
	// SACK enables RFC 2018 selective acknowledgments: advertised on the
	// SYN, granted when both ends advertise it. A SACK connection reports
	// received ranges above a hole on every ACK and recovers loss with a
	// sender scoreboard (RFC 6675-style selective retransmission and pipe
	// accounting); if the peer does not advertise SACK the connection
	// falls back to NewReno recovery. Off by default: the legacy
	// fast-retransmit/RTO machine runs byte-identically.
	SACK bool
	// NewReno enables RFC 6582 partial-ACK recovery without SACK: after a
	// fast retransmit the sender stays in recovery until the entire
	// pre-loss flight is acknowledged, retransmitting one hole per
	// partial ACK instead of waiting out an RTO per hole. Implied (as the
	// fallback) by SACK. Off by default.
	NewReno bool
	// Controller selects the congestion-control algorithm: "reno" (the
	// default, RFC 5681 AIMD exactly as the pre-controller stack behaved)
	// or "cubic" (RFC 8312-style cubic window growth). Unknown names
	// panic in NewStack.
	Controller string
	// Faults, when non-nil, injects inbound-segment faults per its
	// deterministic plan: tcp.drop discards a segment before the state
	// machine sees it (as corruption would), tcp.reset forges an RST
	// onto one, aborting the connection mid-stream.
	Faults *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.InitialRTO <= 0 {
		c.InitialRTO = time.Second
	}
	if c.RTOMin <= 0 {
		c.RTOMin = 200 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	return c
}

// connKey identifies a connection from the local stack's viewpoint.
type connKey struct {
	localPort  uint16
	remoteAddr string
	remotePort uint16
}

func (k connKey) String() string {
	return fmt.Sprintf(":%d<->%s:%d", k.localPort, k.remoteAddr, k.remotePort)
}

// stackMetrics are the stack's counters, taken from its registry at
// construction. Each is an atomic, so a host goroutine may read the
// registry while the clock runs the stack.
type stackMetrics struct {
	segsIn, segsOut, bytesIn, bytesOut   *stats.Counter
	retransmits, fastRetransmits         *stats.Counter
	fastRecoveries, recoveryRexmits      *stats.Counter
	rtoExpiries, zeroWindowProbes        *stats.Counter
	dupAcksIn, outOfOrderIn, badSegments *stats.Counter
	rstsIn, rstsOut                      *stats.Counter
	connsOpened, connsClosed             *stats.Counter
	synsDropped                          *stats.Counter
}

func newStackMetrics(r *stats.Registry) stackMetrics {
	return stackMetrics{
		segsIn:           r.Counter("segs_in"),
		segsOut:          r.Counter("segs_out"),
		bytesIn:          r.Counter("bytes_in"),
		bytesOut:         r.Counter("bytes_out"),
		retransmits:      r.Counter("retransmits"),
		fastRetransmits:  r.Counter("fast_retransmits"),
		fastRecoveries:   r.Counter("fast_recoveries"),
		recoveryRexmits:  r.Counter("recovery_rexmits"),
		rtoExpiries:      r.Counter("rto_expiries"),
		zeroWindowProbes: r.Counter("zero_window_probes"),
		dupAcksIn:        r.Counter("dup_acks_in"),
		outOfOrderIn:     r.Counter("out_of_order_in"),
		badSegments:      r.Counter("bad_segments"),
		rstsIn:           r.Counter("rsts_in"),
		rstsOut:          r.Counter("rsts_out"),
		connsOpened:      r.Counter("conns_opened"),
		connsClosed:      r.Counter("conns_closed"),
		synsDropped:      r.Counter("syns_dropped"),
	}
}

// Stack is one host's TCP instance, bound to a netsim host. Its protocol
// state has one owner, as the paper's event loops own theirs (§4.8):
// packet and timer events are callbacks of the host's virtual clock, and
// user calls run where those do — on the one worker of the runtime bound
// to the clock, or, on a clock no runtime is bound to, one caller at a
// time — so no lock guards it. Only the registry is read from elsewhere,
// and its counters are atomic.
type Stack struct {
	cfg   Config
	host  *netsim.Host
	clock *vclock.VirtualClock

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	issNext   uint32

	tap func(TraceEvent) // SetTrace's observation tap

	metrics *stats.Registry
	m       stackMetrics
}

// TraceEvent describes one segment leaving the stack, observed at the
// moment of transmission with the sending connection's congestion state.
// The conformance harness (internal/tcp/tracecheck) records these.
type TraceEvent struct {
	// Seg is a copy of the segment as built for the wire. Its payload
	// still shares the sender's buffers: the tap must not mutate it or
	// retain it past the callback.
	Seg *Segment
	// Cwnd is the sender's congestion window at transmission time, 0 for
	// segments with no connection (e.g. a listener-less RST).
	Cwnd uint32
	// Rexmit marks a retransmission (RTO, fast retransmit, or SACK
	// scoreboard) as opposed to a first transmission.
	Rexmit bool
}

// SetTrace installs fn as the stack's transmission tap; every outgoing
// segment is reported before it is handed to the network. fn runs in the
// middle of a state change: it must not call back into the stack. A nil
// fn removes the tap. Call it during setup. Tracing is for tests and
// conformance tooling; the figures never enable it.
func (s *Stack) SetTrace(fn func(TraceEvent)) { s.tap = fn }

// trace reports one outgoing segment to the tap, if installed. The
// tap gets a copy, SACK blocks included, so the sender's segment never
// leaves its stack frame.
func (s *Stack) trace(seg *Segment, cwnd uint32, rexmit bool) {
	if s.tap != nil {
		cp := *seg
		cp.Sack = slices.Clone(seg.Sack)
		s.tap(TraceEvent{Seg: &cp, Cwnd: cwnd, Rexmit: rexmit})
	}
}

// NewStack attaches a TCP stack to a netsim host. It panics on an unknown
// Config.Controller name (a static misconfiguration, caught at setup).
func NewStack(host *netsim.Host, cfg Config) *Stack {
	switch cfg.Controller {
	case "", "reno", "cubic":
	default:
		panic("tcp: unknown congestion controller " + cfg.Controller)
	}
	s := &Stack{
		cfg:       cfg.withDefaults(),
		host:      host,
		clock:     host.Clock(),
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  49152,
		issNext:   1,
		metrics:   stats.NewRegistry(),
	}
	s.m = newStackMetrics(s.metrics)
	// The registered connections, opened minus closed: a host goroutine
	// polls it while the FIN exchange and TIME_WAIT run (bench.Quiescence),
	// so it reads the atomic counters, not the map. Closed is read first,
	// so the difference is never below the count at either read: it reads
	// 0 only if no connection was registered at either moment.
	s.metrics.GaugeFunc("conns", func() int64 {
		closed := s.m.connsClosed.Load()
		return int64(s.m.connsOpened.Load() - closed)
	})
	host.SetHandler(s.input)
	return s
}

// Metrics exposes the stack's registry for the observability layer.
func (s *Stack) Metrics() *stats.Registry { return s.metrics }

// Addr reports the stack's host address.
func (s *Stack) Addr() string { return s.host.Addr() }

// allocPort returns a free ephemeral port.
func (s *Stack) allocPort(remoteAddr string, remotePort uint16) (uint16, error) {
	for tries := 0; tries < 16384; tries++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 49152
		}
		if _, usedL := s.listeners[p]; usedL {
			continue
		}
		if _, usedC := s.conns[connKey{p, remoteAddr, remotePort}]; usedC {
			continue
		}
		return p, nil
	}
	return 0, errors.New("tcp: ephemeral ports exhausted")
}

// sendSeg encodes seg straight into a pooled datagram and transmits it:
// the datagram now belongs to the network, and then to the receiving
// stack, which returns it to the pool.
func (s *Stack) sendSeg(dst string, seg *Segment) {
	wire := bufpool.Get(seg.WireLen())
	seg.EncodeTo(wire)
	s.host.Transmit(dst, wire)
}

// input is the packet-arrival event handler (worker_tcp_input): decode,
// demux to a connection or listener, and run the state machine. The
// segment and the wakeups it gathers live on this frame; only SACK
// blocks, which arrive during loss recovery, are decoded to the heap (the
// state machine keeps the payload, and escape analysis cannot tell that
// field from the blocks'). The pooled datagram is input's: a connection
// keeps it while its payload waits in the receive queue or the
// reassembly map, and any other goes back to the pool on the way out.
func (s *Stack) input(src string, data []byte) {
	kept := false
	defer func() {
		if !kept {
			bufpool.Put(data)
		}
	}()
	var seg Segment
	if err := decodeInto(&seg, data); err != nil {
		s.m.badSegments.Inc()
		return
	}
	// Injected segment faults act at the edge of the stack, before demux:
	// a drop is indistinguishable from checksum-failed corruption, a
	// forged RST exercises the abort path of whatever state the
	// connection is in.
	if s.cfg.Faults.Fire(faults.TCPDrop) {
		s.m.badSegments.Inc()
		return
	}
	if s.cfg.Faults.Fire(faults.TCPReset) {
		seg.Flags |= FlagRST
	}
	s.m.segsIn.Inc()
	s.m.bytesIn.Add(uint64(seg.Payload.Len()))
	key := connKey{seg.DstPort, src, seg.SrcPort}
	if c, ok := s.conns[key]; ok {
		var w waitq.List
		kept = c.process(&seg, data, &w)
		w.WakeAll(0)
		return
	}
	// No connection: a SYN may create one via a listener, subject to the
	// listener's backlog of embryonic plus unaccepted connections.
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		if l, ok := s.listeners[seg.DstPort]; ok && !l.closed {
			if l.pending+len(l.backlog) >= maxBacklog {
				s.m.synsDropped.Inc()
				return
			}
			l.pending++
			c := s.newConn(key, StateSynRcvd)
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.sndWnd = seg.Window
			c.listener = l
			synack := FlagSYN | FlagACK
			// Grant SACK only when we are configured for it and the
			// client's SYN asked (RFC 2018 §2).
			if s.cfg.SACK && seg.Flags&FlagSACKOK != 0 {
				c.sackOn = true
				synack |= FlagSACKOK
			}
			c.sendSeg(synack, iovec.Vec{}, true)
			return
		}
	}
	// Otherwise: RST in response to anything but an RST.
	if seg.Flags&FlagRST == 0 {
		s.m.rstsOut.Inc()
		rst := Segment{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: seg.Seq + seg.seqLen(), Flags: FlagRST | FlagACK,
		}
		s.trace(&rst, 0, false)
		s.sendSeg(src, &rst)
	}
}

// newConn creates and registers a connection.
func (s *Stack) newConn(key connKey, st State) *Conn {
	c := &Conn{
		s:     s,
		key:   key,
		state: st,
		iss:   s.issNext,
		cc:    newController(s.cfg.Controller, MSS, initialCwnd*MSS),
		rto:   s.cfg.InitialRTO,
	}
	s.issNext += 64 * 1024 // deterministic, well-separated ISNs
	c.sndUna = c.iss
	c.sndNxt = c.iss
	s.conns[key] = c
	s.m.connsOpened.Inc()
	return c
}

// removeConn unregisters a connection and returns its reassembly
// entries to the pool. Data already in order stays readable.
func (s *Stack) removeConn(c *Conn) {
	if _, ok := s.conns[c.key]; ok {
		delete(s.conns, c.key)
		s.m.connsClosed.Inc()
	}
	for _, d := range c.ooo {
		bufpool.Put(d)
	}
	c.ooo = nil
}

// Connect starts an active open to addr:port and returns the connection
// in SYN_SENT; wait for establishment with OnEstablished (or the monadic
// Connect wrapper).
func (s *Stack) Connect(addr string, port uint16) (*Conn, error) {
	defer s.enter()()
	lp, err := s.allocPort(addr, port)
	if err != nil {
		return nil, err
	}
	c := s.newConn(connKey{lp, addr, port}, StateSynSent)
	syn := FlagSYN
	if s.cfg.SACK {
		syn |= FlagSACKOK // advertise; granted if the SYN-ACK echoes it
	}
	c.sendSeg(syn, iovec.Vec{}, true)
	return c, nil
}

// Listen opens a passive socket on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, dup := s.listeners[port]; dup {
		return nil, fmt.Errorf("port %d: %w", port, ErrAddrInUse)
	}
	l := &Listener{s: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Listener is a passive socket.
type Listener struct {
	s       *Stack
	port    uint16
	backlog []*Conn // established, unaccepted
	pending int     // embryonic (SYN_RCVD) connections
	waiters waitq.List
	closed  bool
}

// TryAccept returns an established connection or ErrWouldBlock.
func (l *Listener) TryAccept() (*Conn, error) {
	if l.closed {
		return nil, ErrClosed
	}
	if len(l.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// OnAcceptable parks w, one-shot, until TryAccept may succeed (a
// connection is pending or the listener closed).
func (l *Listener) OnAcceptable(w *waitq.Waiter) {
	hook(l.closed || len(l.backlog) > 0, &l.waiters, w)
}

// hook is every ready hook's registration: it parks w on list, or wakes
// it at once if ready already holds.
func hook(ready bool, list *waitq.List, w *waitq.Waiter) {
	if ready {
		w.Target.Wake()
		return
	}
	list.Push(w)
}

// Close shuts the listener; pending and future accepts fail with
// ErrClosed. Established connections are unaffected.
func (l *Listener) Close() {
	l.closed = true
	delete(l.s.listeners, l.port)
	var w waitq.List
	w.Append(&l.waiters)
	w.WakeAll(0)
}

// deliver queues an established connection on the backlog.
func (l *Listener) deliver(c *Conn, w *waitq.List) {
	if l.closed {
		return
	}
	l.backlog = append(l.backlog, c)
	w.Append(&l.waiters)
}

// Re-entrancy note: Transmit arms a clock event and, on a clock with no
// runtime bound and no hold outstanding (tracecheck, the benchmark's bulk
// probe), the clock fires the batch on the caller, inside Transmit —
// which would run packet handlers in the middle of the sender's state
// change. Every path that sends therefore runs with the clock held:
// packet and timer handlers hold it by construction (clock callbacks),
// and the public user entry points that send bracket themselves with
// Enter/Exit via enter.
func (s *Stack) enter() func() {
	s.clock.Enter()
	return s.clock.Exit
}
