// Package netsim simulates a packet network: named hosts exchanging opaque
// datagrams over links with bandwidth, propagation latency, loss,
// duplication, and reordering. It is the substrate under the application-
// level TCP stack (paper §4.8) and stands in for the 100 Mbps Ethernet of
// the paper's testbed.
//
// All timing is charged on a vclock.Clock, so simulations are
// deterministic given a seed: egress links serialize packets at their
// bandwidth, and arrivals are delivered as clock events to the receiving
// host's handler — the packet-input events that the paper's
// worker_tcp_input loop consumes.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/faults"
	"hybrid/internal/vclock"
)

// LinkParams shape a host's egress link.
type LinkParams struct {
	// Bandwidth in bytes per second; 0 means infinitely fast.
	Bandwidth int64
	// Latency is one-way propagation delay.
	Latency time.Duration
	// LossProb is the probability a packet is dropped in flight.
	LossProb float64
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// ReorderProb is the probability a packet receives extra random
	// delay (up to 4x latency), arriving out of order.
	ReorderProb float64
	// QueueLimit bounds the egress queue in bytes; packets beyond it are
	// tail-dropped. 0 means 256 KB.
	QueueLimit int
}

func (p LinkParams) withDefaults() LinkParams {
	if p.QueueLimit == 0 {
		p.QueueLimit = 256 * 1024
	}
	return p
}

// Ethernet100 models the paper's test network: 100 Mbps, 100 µs one-way.
func Ethernet100() LinkParams {
	return LinkParams{Bandwidth: 100_000_000 / 8, Latency: 100 * time.Microsecond}
}

// Handler receives a datagram delivered to a host.
type Handler func(src string, payload []byte)

// PathSpec shapes one *directed* host pair, layered on top of the sender's
// egress link parameters. It exists for loss experiments that need
// asymmetric conditions (drop the data direction, keep the ACK path clean)
// and for exactly-replayable conformance traces: DropSeq names specific
// packets by per-path transmission index, with no randomness involved.
type PathSpec struct {
	// LossProb is an extra independent drop probability for this
	// direction, drawn from the network's seeded RNG.
	LossProb float64
	// DropSeq lists 0-based per-path packet indices to drop
	// deterministically (every Send on the path counts, including ones
	// already doomed by other loss sources).
	DropSeq []uint64
}

// pathKey identifies a directed host pair.
type pathKey struct{ src, dst string }

// pathState is the live per-direction accounting for a PathSpec.
type pathState struct {
	spec    PathSpec
	dropSet map[uint64]struct{}
	count   uint64 // packets offered on this path so far
}

// Network is a set of hosts sharing a clock and a seeded RNG.
type Network struct {
	clock vclock.Clock
	mu    sync.Mutex
	hosts map[string]*Host
	rng   *rand.Rand
	paths map[pathKey]*pathState

	// Stats
	sent, delivered, dropped, duplicated uint64
	bytesSent                            uint64

	// faults, when non-nil, injects extra loss, duplication, and reorder
	// jitter on top of the links' own parameters, per its deterministic
	// plan.
	faults *faults.Injector

	// packets recycles in-flight datagram records. A pool rather than a
	// free list: a free list would keep the in-flight peak alive forever.
	packets sync.Pool
}

// New creates a network on the given clock with a deterministic RNG seed.
func New(clock vclock.Clock, seed int64) *Network {
	n := &Network{
		clock: clock,
		hosts: make(map[string]*Host),
		rng:   rand.New(rand.NewSource(seed)),
	}
	n.packets.New = func() any {
		p := &packet{net: n}
		p.wire = clock.NewTimer(p.fire)
		p.dupe = clock.NewTimer(p.arrive)
		return p
	}
	return n
}

// packet is one datagram in flight. Its callbacks are bound once, to owned
// timers, when the record is made: wire fires first at departure from the
// sender's egress queue and is re-armed for the arrival, and dupe carries
// a duplicate's second arrival. A record goes back to the pool after its
// last event.
type packet struct {
	net       *Network
	src, dst  *Host
	data      []byte
	delay     time.Duration // latency plus jitter, departure to arrival
	loss, dup bool
	// arrivals counts the arrivals still due: zero until the departure
	// arms them, so it also tells the wire timer which event it is. It is
	// atomic because a real clock may run a duplicate's two at once.
	arrivals   atomic.Int32
	wire, dupe *vclock.Timer
}

// fire is the wire timer's callback: the departure, then the arrival.
func (p *packet) fire() {
	if p.arrivals.Load() > 0 {
		p.arrive()
		return
	}
	h, n := p.src, p.net
	h.mu.Lock()
	h.queued -= len(p.data)
	h.mu.Unlock()
	if p.loss {
		n.mu.Lock()
		n.dropped++
		n.mu.Unlock()
		p.release()
		return
	}
	if p.dup {
		p.arrivals.Store(2)
	} else {
		p.arrivals.Store(1)
	}
	p.wire.Reset(p.delay)
	if p.dup {
		n.mu.Lock()
		n.duplicated++
		n.mu.Unlock()
		p.dupe.Reset(p.delay)
	}
}

// arrive hands the datagram to the receiving host; a duplicate's two
// arrivals share one copy of the payload.
func (p *packet) arrive() {
	p.dst.deliver(p.src.addr, p.data)
	if p.arrivals.Add(-1) == 0 {
		p.release()
	}
}

func (p *packet) release() {
	p.src, p.dst, p.data = nil, nil, nil
	p.net.packets.Put(p)
}

// SetFaults attaches a fault injector: subsequent packets may be
// dropped, duplicated, or delayed (reordered) beyond what the link
// parameters already model. Call during setup, before traffic flows.
func (n *Network) SetFaults(in *faults.Injector) { n.faults = in }

// SetPath installs a per-direction spec for packets from src to dst.
// Call during setup, before traffic flows; paths without a spec draw no
// extra randomness, so adding one path leaves others' RNG streams (and
// any existing experiment's byte-level output) untouched.
func (n *Network) SetPath(src, dst string, spec PathSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.paths == nil {
		n.paths = make(map[pathKey]*pathState)
	}
	st := &pathState{spec: spec}
	if len(spec.DropSeq) > 0 {
		st.dropSet = make(map[uint64]struct{}, len(spec.DropSeq))
		for _, i := range spec.DropSeq {
			st.dropSet[i] = struct{}{}
		}
	}
	n.paths[pathKey{src, dst}] = st
}

// Stats reports packet counters: sent, delivered, dropped, duplicated.
func (n *Network) Stats() (sent, delivered, dropped, duplicated uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered, n.dropped, n.duplicated
}

// Host attaches a new host with the given egress link parameters.
func (n *Network) Host(addr string, link LinkParams) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[addr]; dup {
		return nil, fmt.Errorf("netsim: host %q already exists", addr)
	}
	h := &Host{net: n, addr: addr, link: link.withDefaults()}
	n.hosts[addr] = h
	return h, nil
}

// Host is one attached endpoint.
type Host struct {
	net  *Network
	addr string
	link LinkParams

	mu       sync.Mutex
	handler  Handler
	nextFree vclock.Time // when the egress link finishes its current packet
	queued   int         // bytes committed to the egress queue
}

// Addr reports the host's address.
func (h *Host) Addr() string { return h.addr }

// Clock reports the timing domain of the host's network.
func (h *Host) Clock() vclock.Clock { return h.net.clock }

// SetHandler installs the datagram receiver. Handlers run on the clock's
// event context (they hold the clock busy while running).
func (h *Host) SetHandler(fn Handler) {
	h.mu.Lock()
	h.handler = fn
	h.mu.Unlock()
}

// Send transmits a datagram to dst. The payload is copied, so the caller
// may reuse the buffer. Loss and overflow are silent, as on a real wire.
func (h *Host) Send(dst string, payload []byte) {
	n := h.net
	n.mu.Lock()
	peer := n.hosts[dst]
	n.sent++
	n.bytesSent += uint64(len(payload))
	if peer == nil {
		n.dropped++
		n.mu.Unlock()
		return
	}
	loss := n.rng.Float64() < h.link.LossProb
	dup := n.rng.Float64() < h.link.DupProb
	reorder := n.rng.Float64() < h.link.ReorderProb
	var jitter time.Duration
	if reorder {
		jitter = time.Duration(n.rng.Int63n(int64(4*h.link.Latency) + 1))
	}
	if st, ok := n.paths[pathKey{h.addr, dst}]; ok {
		idx := st.count
		st.count++
		if st.spec.LossProb > 0 && n.rng.Float64() < st.spec.LossProb {
			loss = true
		}
		if _, drop := st.dropSet[idx]; drop {
			loss = true
		}
	}
	n.mu.Unlock()

	// Injected faults are OR-ed onto the link model's own draws, so a
	// plan can make even a clean link hostile.
	loss = loss || n.faults.Fire(faults.NetDrop)
	dup = dup || n.faults.Fire(faults.NetDup)
	jitter += n.faults.Latency(faults.NetReorder, 4*h.link.Latency+time.Millisecond)

	h.mu.Lock()
	if h.queued+len(payload) > h.link.QueueLimit {
		h.mu.Unlock()
		n.mu.Lock()
		n.dropped++
		n.mu.Unlock()
		return
	}
	now := h.net.clock.Now()
	start := h.nextFree
	if start < now {
		start = now
	}
	var txTime time.Duration
	if h.link.Bandwidth > 0 {
		txTime = time.Duration(int64(len(payload)) * int64(time.Second) / h.link.Bandwidth)
	}
	h.nextFree = start + vclock.Time(txTime)
	h.queued += len(payload)
	depart := h.nextFree
	h.mu.Unlock()

	// The receiver keeps the payload (tcp chains it into its receive
	// buffer), so each datagram carries its own copy.
	p := n.packets.Get().(*packet)
	p.src, p.dst = h, peer
	p.data = make([]byte, len(payload))
	copy(p.data, payload)
	p.delay = h.link.Latency + jitter
	p.loss, p.dup = loss, dup

	// The packet leaves the queue at depart; it arrives Latency (+jitter)
	// later, unless lost.
	p.wire.Reset(time.Duration(depart - now))
}

func (h *Host) deliver(src string, data []byte) {
	h.mu.Lock()
	fn := h.handler
	h.mu.Unlock()
	n := h.net
	n.mu.Lock()
	n.delivered++
	n.mu.Unlock()
	if fn != nil {
		fn(src, data)
	}
}
