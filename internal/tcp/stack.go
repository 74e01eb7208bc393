package tcp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/faults"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
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
// congestion window in segments (RFC 5681's conservative 2). Nothing ever
// set either, so they are constants, not Config fields.
const (
	MSS         = 1460
	initialCwnd = 2
)

// Config tunes the stack.
type Config struct {
	// SendBuf and RecvBuf bound per-connection buffering. Default 64 KB.
	SendBuf, RecvBuf int
	// InitialRTO, RTOMin, RTOMax bound the retransmission timer.
	// Defaults 1s / 200ms / 60s (RFC 6298).
	InitialRTO, RTOMin, RTOMax time.Duration
	// MSL is the maximum segment lifetime; TIME_WAIT lasts 2*MSL.
	// Default 30s.
	MSL time.Duration
	// MaxRetries bounds consecutive retransmissions of one segment
	// before the connection errors with ErrTimeout. Default 8.
	MaxRetries int
	// DelayedAck, when nonzero, delays pure ACKs by up to this duration:
	// every second data segment, out-of-order arrivals, and FINs are
	// still acknowledged immediately (RFC 1122 §4.2.3.2). Zero keeps the
	// stack's default of immediate ACKs.
	DelayedAck time.Duration
	// Nagle enables RFC 896 small-segment coalescing: a sub-MSS segment
	// is held back while unacknowledged data is in flight. Off by
	// default (the latency-sensitive configuration).
	Nagle bool
	// Backlog caps, per listener, connections that are mid-handshake or
	// accepted-but-unclaimed; SYNs beyond it are dropped (the client
	// retries, as under SYN-queue pressure on a real stack). Default 128.
	Backlog int
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
	if c.SendBuf <= 0 {
		c.SendBuf = 64 * 1024
	}
	if c.RecvBuf <= 0 {
		c.RecvBuf = 64 * 1024
	}
	if c.InitialRTO <= 0 {
		c.InitialRTO = time.Second
	}
	if c.RTOMin <= 0 {
		c.RTOMin = 200 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 60 * time.Second
	}
	if c.MSL <= 0 {
		c.MSL = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Backlog <= 0 {
		c.Backlog = 128
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

// Stats counts stack activity.
type Stats struct {
	SegsIn, SegsOut          uint64
	Retransmits              uint64
	FastRetransmits          uint64
	FastRecoveries           uint64
	RecoveryRexmits          uint64
	RTOExpiries              uint64
	ZeroWindowProbes         uint64
	DupAcksIn                uint64
	OutOfOrderIn             uint64
	RSTsIn, RSTsOut          uint64
	BadSegments              uint64
	BytesIn, BytesOut        uint64
	ConnsOpened, ConnsClosed uint64
	SynsDropped              uint64
}

// tcpCounters is the hot-path mirror of Stats: one atomic per field, so
// counting a segment never touches the protocol lock and the
// observability layer's readers (CounterFunc closures, Snapshot) cannot
// stall the data path.
type tcpCounters struct {
	SegsIn, SegsOut          atomic.Uint64
	Retransmits              atomic.Uint64
	FastRetransmits          atomic.Uint64
	FastRecoveries           atomic.Uint64
	RecoveryRexmits          atomic.Uint64
	RTOExpiries              atomic.Uint64
	ZeroWindowProbes         atomic.Uint64
	DupAcksIn                atomic.Uint64
	OutOfOrderIn             atomic.Uint64
	RSTsIn, RSTsOut          atomic.Uint64
	BadSegments              atomic.Uint64
	BytesIn, BytesOut        atomic.Uint64
	ConnsOpened, ConnsClosed atomic.Uint64
	SynsDropped              atomic.Uint64
}

// Stack is one host's TCP instance, bound to a netsim host. All protocol
// state is guarded by one lock; packet events, timer events, and user
// calls serialize on it (the paper runs these as separate event loops
// around its scheduler — the serialization point here is explicit).
type Stack struct {
	cfg   Config
	host  *netsim.Host
	clock vclock.Clock

	mu        sync.Mutex
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	issNext   uint32

	stats tcpCounters // atomics; not guarded by mu

	trace func(TraceEvent) // observation tap; guarded by mu

	metrics *stats.Registry
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
// segment is reported before it is handed to the network. fn runs under
// the stack lock: it must not call back into the stack. A nil fn removes
// the tap. Tracing is for tests and conformance tooling; the figures
// never enable it.
func (s *Stack) SetTrace(fn func(TraceEvent)) {
	s.mu.Lock()
	s.trace = fn
	s.mu.Unlock()
}

// traceLocked reports one outgoing segment to the tap, if installed. The
// tap gets a copy, SACK blocks included, so the sender's segment never
// leaves its stack frame.
func (s *Stack) traceLocked(seg *Segment, cwnd uint32, rexmit bool) {
	if s.trace != nil {
		cp := *seg
		cp.Sack = slices.Clone(seg.Sack)
		s.trace(TraceEvent{Seg: &cp, Cwnd: cwnd, Rexmit: rexmit})
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
	counters := []struct {
		name string
		c    *atomic.Uint64
	}{
		{"segs_in", &s.stats.SegsIn},
		{"segs_out", &s.stats.SegsOut},
		{"retransmits", &s.stats.Retransmits},
		{"fast_retransmits", &s.stats.FastRetransmits},
		{"fast_recoveries", &s.stats.FastRecoveries},
		{"recovery_rexmits", &s.stats.RecoveryRexmits},
		{"rto_expiries", &s.stats.RTOExpiries},
		{"zero_window_probes", &s.stats.ZeroWindowProbes},
		{"dup_acks_in", &s.stats.DupAcksIn},
		{"out_of_order_in", &s.stats.OutOfOrderIn},
		{"bytes_in", &s.stats.BytesIn},
		{"bytes_out", &s.stats.BytesOut},
		{"conns_opened", &s.stats.ConnsOpened},
		{"conns_closed", &s.stats.ConnsClosed},
		{"syns_dropped", &s.stats.SynsDropped},
	}
	for _, c := range counters {
		ctr := c.c
		s.metrics.CounterFunc(c.name, ctr.Load)
	}
	s.metrics.GaugeFunc("conns", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	host.SetHandler(s.input)
	return s
}

// Metrics exposes the stack's registry for the observability layer.
func (s *Stack) Metrics() *stats.Registry { return s.metrics }

// Addr reports the stack's host address.
func (s *Stack) Addr() string { return s.host.Addr() }

// Snapshot returns a copy of the stack's counters.
func (s *Stack) Snapshot() Stats {
	return Stats{
		SegsIn:           s.stats.SegsIn.Load(),
		SegsOut:          s.stats.SegsOut.Load(),
		Retransmits:      s.stats.Retransmits.Load(),
		FastRetransmits:  s.stats.FastRetransmits.Load(),
		FastRecoveries:   s.stats.FastRecoveries.Load(),
		RecoveryRexmits:  s.stats.RecoveryRexmits.Load(),
		RTOExpiries:      s.stats.RTOExpiries.Load(),
		ZeroWindowProbes: s.stats.ZeroWindowProbes.Load(),
		DupAcksIn:        s.stats.DupAcksIn.Load(),
		OutOfOrderIn:     s.stats.OutOfOrderIn.Load(),
		RSTsIn:           s.stats.RSTsIn.Load(),
		RSTsOut:          s.stats.RSTsOut.Load(),
		BadSegments:      s.stats.BadSegments.Load(),
		BytesIn:          s.stats.BytesIn.Load(),
		BytesOut:         s.stats.BytesOut.Load(),
		ConnsOpened:      s.stats.ConnsOpened.Load(),
		ConnsClosed:      s.stats.ConnsClosed.Load(),
		SynsDropped:      s.stats.SynsDropped.Load(),
	}
}

// allocPortLocked returns a free ephemeral port.
func (s *Stack) allocPortLocked(remoteAddr string, remotePort uint16) (uint16, error) {
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

// sendSeg encodes seg into a pooled wire buffer and hands it to the host.
// netsim copies the payload before scheduling delivery, so the buffer goes
// straight back to the pool; nothing on the wire ever references it.
func (s *Stack) sendSeg(dst string, seg *Segment) {
	wire := bufpool.Get(seg.WireLen())
	seg.EncodeTo(wire)
	s.host.Send(dst, wire)
	bufpool.Put(wire)
}

// input is the packet-arrival event handler (worker_tcp_input): decode,
// demux to a connection or listener, and run the state machine. The
// segment and the wakeups it gathers live on this frame; only SACK
// blocks, which arrive during loss recovery, are decoded to the heap (the
// state machine keeps the payload, and escape analysis cannot tell that
// field from the blocks').
func (s *Stack) input(src string, data []byte) {
	var seg Segment
	if err := decodeInto(&seg, data); err != nil {
		s.mu.Lock()
		s.stats.BadSegments.Add(1)
		s.mu.Unlock()
		return
	}
	// Injected segment faults act at the edge of the stack, before demux:
	// a drop is indistinguishable from checksum-failed corruption, a
	// forged RST exercises the abort path of whatever state the
	// connection is in.
	if s.cfg.Faults.Fire(faults.TCPDrop) {
		s.mu.Lock()
		s.stats.BadSegments.Add(1)
		s.mu.Unlock()
		return
	}
	if s.cfg.Faults.Fire(faults.TCPReset) {
		seg.Flags |= FlagRST
	}
	s.mu.Lock()
	s.stats.SegsIn.Add(1)
	s.stats.BytesIn.Add(uint64(seg.Payload.Len()))
	key := connKey{seg.DstPort, src, seg.SrcPort}
	if c, ok := s.conns[key]; ok {
		var w wakeSet
		c.processLocked(&seg, &w)
		s.mu.Unlock()
		w.run()
		return
	}
	// No connection: a SYN may create one via a listener, subject to the
	// listener's backlog of embryonic plus unaccepted connections.
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		if l, ok := s.listeners[seg.DstPort]; ok && !l.closed {
			if l.pending+len(l.backlog) >= s.cfg.Backlog {
				s.stats.SynsDropped.Add(1)
				s.mu.Unlock()
				return
			}
			l.pending++
			c := s.newConnLocked(key, StateSynRcvd)
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
			c.sendSegLocked(synack, iovec.Vec{}, true)
			s.mu.Unlock()
			return
		}
	}
	// Otherwise: RST in response to anything but an RST.
	if seg.Flags&FlagRST == 0 {
		s.stats.RSTsOut.Add(1)
		rst := Segment{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: seg.Seq + seg.seqLen(), Flags: FlagRST | FlagACK,
		}
		s.traceLocked(&rst, 0, false)
		s.mu.Unlock()
		s.sendSeg(src, &rst)
		return
	}
	s.mu.Unlock()
}

// wakeSet gathers the one-shot ready hooks an event fires, to run once
// the stack lock is released. It lives on the event's own stack frame, so
// two events on two goroutines never share it; a few hooks fit in place
// and only a larger set spills to the heap.
type wakeSet struct {
	n    int
	fns  [4]func()
	more []func()
}

// take moves every hook on *list into the set, in order, and empties the
// list while keeping its storage for the next registration.
func (w *wakeSet) take(list *[]func()) {
	for _, fn := range *list {
		if w.n < len(w.fns) {
			w.fns[w.n] = fn
			w.n++
		} else {
			w.more = append(w.more, fn)
		}
	}
	clear(*list)
	*list = (*list)[:0]
}

// run invokes the gathered hooks in the order they were taken.
func (w *wakeSet) run() {
	for _, fn := range w.fns[:w.n] {
		fn()
	}
	for _, fn := range w.more {
		fn()
	}
}

// newConnLocked creates and registers a connection.
func (s *Stack) newConnLocked(key connKey, st State) *Conn {
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
	s.stats.ConnsOpened.Add(1)
	return c
}

// removeConnLocked unregisters a connection.
func (s *Stack) removeConnLocked(c *Conn) {
	if _, ok := s.conns[c.key]; ok {
		delete(s.conns, c.key)
		s.stats.ConnsClosed.Add(1)
	}
}

// Connect starts an active open to addr:port and returns the connection
// in SYN_SENT; wait for establishment with OnEstablished (or the monadic
// Connect wrapper).
func (s *Stack) Connect(addr string, port uint16) (*Conn, error) {
	defer s.enter()()
	s.mu.Lock()
	lp, err := s.allocPortLocked(addr, port)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	c := s.newConnLocked(connKey{lp, addr, port}, StateSynSent)
	syn := FlagSYN
	if s.cfg.SACK {
		syn |= FlagSACKOK // advertise; granted if the SYN-ACK echoes it
	}
	c.sendSegLocked(syn, iovec.Vec{}, true)
	s.mu.Unlock()
	return c, nil
}

// Listen opens a passive socket on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	waiters []func()
	closed  bool
}

// TryAccept returns an established connection or ErrWouldBlock.
func (l *Listener) TryAccept() (*Conn, error) {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
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

// OnAcceptable registers a one-shot callback for when TryAccept may
// succeed (a connection is pending or the listener closed).
func (l *Listener) OnAcceptable(cb func()) {
	l.s.mu.Lock()
	if l.closed || len(l.backlog) > 0 {
		l.s.mu.Unlock()
		cb()
		return
	}
	l.waiters = append(l.waiters, cb)
	l.s.mu.Unlock()
}

// Close shuts the listener; pending and future accepts fail with
// ErrClosed. Established connections are unaffected.
func (l *Listener) Close() {
	l.s.mu.Lock()
	l.closed = true
	delete(l.s.listeners, l.port)
	var w wakeSet
	w.take(&l.waiters)
	l.s.mu.Unlock()
	w.run()
}

// deliverLocked queues an established connection on the backlog.
func (l *Listener) deliverLocked(c *Conn, w *wakeSet) {
	if l.closed {
		return
	}
	l.backlog = append(l.backlog, c)
	w.take(&l.waiters)
}

// Re-entrancy note: netsim.Send schedules events on the clock and, when
// the busy count is zero, the clock advances synchronously — which would
// run packet handlers that re-enter this stack's lock. Every path that
// sends while holding s.mu therefore runs with the clock held busy:
// packet and timer handlers hold it by construction (clock callbacks),
// and the public user entry points bracket themselves with
// s.clock.Enter() / Exit() via the enter helper.
func (s *Stack) enter() func() {
	s.clock.Enter()
	return s.clock.Exit
}
