// Package netsim simulates a packet network: named hosts exchanging opaque
// datagrams over links with bandwidth, propagation latency, loss,
// duplication, and reordering. It is the substrate under the application-
// level TCP stack (paper §4.8) and stands in for the 100 Mbps Ethernet of
// the paper's testbed.
//
// All timing is charged on a virtual clock, so simulations are
// deterministic given a seed: egress links serialize packets at their
// bandwidth, and arrivals are delivered as clock events to the receiving
// host's handler — the packet-input events that the paper's
// worker_tcp_input loop consumes.
//
// A network has one owner, the clock's event context: every send, arrival
// and handler runs there (on the bound runtime's worker, or inside an
// unbound clock's Enter/Exit bracket), so no lock guards a host or the
// network. Only Stats, which a host goroutine may read while the clock
// runs, is atomic.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybrid/internal/bufpool"
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

// Handler receives a datagram delivered to a host. The payload is a
// bufpool buffer the handler owns: it returns it with bufpool.Put once
// nothing refers to it, or else leaves it to the collector.
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
	clock *vclock.VirtualClock
	hosts map[string]*Host
	rng   *rand.Rand
	paths map[pathKey]*pathState

	// Stats, read by Stats from any goroutine.
	sent, delivered, dropped, duplicated atomic.Uint64

	// faults, when non-nil, injects extra loss, duplication, and reorder
	// jitter on top of the links' own parameters, per its deterministic
	// plan.
	faults *faults.Injector

	// packets recycles in-flight datagram records. A pool rather than a
	// free list: a free list would keep the in-flight peak alive forever.
	packets sync.Pool
}

// New creates a network on the given clock with a deterministic RNG seed.
// The clock is virtual: its event context is the network's one owner.
func New(clock *vclock.VirtualClock, seed int64) *Network {
	n := &Network{
		clock: clock,
		hosts: make(map[string]*Host),
		rng:   rand.New(rand.NewSource(seed)),
	}
	n.packets.New = func() any {
		p := &packet{net: n}
		p.wire = clock.NewTimer(p.fire)
		return p
	}
	return n
}

// packet is one datagram in flight. Its callback is bound once, to an
// owned timer, when the record is made: wire fires first at departure
// from the sender's egress queue and is re-armed for the arrival. A
// duplicate travels on a record of its own. A record goes back to the
// pool after its last event.
type packet struct {
	net       *Network
	src, dst  *Host
	data      []byte        // the pooled datagram, the packet's until it arrives
	delay     time.Duration // latency plus jitter, departure to arrival
	loss, dup bool
	departed  bool // tells the wire timer which event it is
	wire      *vclock.Timer
}

// fire is the wire timer's callback: the departure, then the arrival.
func (p *packet) fire() {
	if p.departed {
		p.dst.deliver(p.src.addr, p.data)
		p.release()
		return
	}
	n := p.net
	p.src.queued -= len(p.data)
	if p.loss {
		n.dropped.Add(1)
		bufpool.Put(p.data)
		p.release()
		return
	}
	p.departed = true
	if p.dup {
		n.duplicated.Add(1)
		// The duplicate brings its own copy, so each delivery has one
		// owner. It is armed first, as p is not touched once it is.
		q := n.packets.Get().(*packet)
		q.src, q.dst, q.departed = p.src, p.dst, true
		q.data = bufpool.Get(len(p.data))
		copy(q.data, p.data)
		q.wire.Reset(p.delay)
	}
	p.wire.Reset(p.delay)
}

func (p *packet) release() {
	p.src, p.dst, p.data, p.departed = nil, nil, nil, false
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
// It may be called from any goroutine while the clock runs.
func (n *Network) Stats() (sent, delivered, dropped, duplicated uint64) {
	return n.sent.Load(), n.delivered.Load(), n.dropped.Load(), n.duplicated.Load()
}

// Host attaches a new host with the given egress link parameters.
func (n *Network) Host(addr string, link LinkParams) (*Host, error) {
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

	handler  Handler
	nextFree vclock.Time // when the egress link finishes its current packet
	queued   int         // bytes committed to the egress queue
}

// Addr reports the host's address.
func (h *Host) Addr() string { return h.addr }

// Clock reports the virtual clock whose event context owns the host's
// network.
func (h *Host) Clock() *vclock.VirtualClock { return h.net.clock }

// SetHandler installs the datagram receiver. Call it during setup, before
// traffic flows: handlers run on the clock's event context (they hold the
// clock busy while running), which reads the field without a lock.
func (h *Host) SetHandler(fn Handler) { h.handler = fn }

// Send transmits a copy of payload to dst, so the caller may reuse the
// buffer: the copy goes into a pooled buffer, which Transmit hands over.
func (h *Host) Send(dst string, payload []byte) {
	b := bufpool.Get(len(payload))
	copy(b, payload)
	h.Transmit(dst, b)
}

// Transmit hands b, a buffer from bufpool.Get, to the network without a
// copy, for the receiving handler. One that never arrives — lost,
// tail-dropped or addressed to no host — goes back to the pool here,
// silently, as on a real wire.
func (h *Host) Transmit(dst string, b []byte) {
	n := h.net
	peer := n.hosts[dst]
	n.sent.Add(1)
	if peer == nil {
		n.dropped.Add(1)
		bufpool.Put(b)
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

	// Injected faults are OR-ed onto the link model's own draws, so a
	// plan can make even a clean link hostile.
	loss = loss || n.faults.Fire(faults.NetDrop)
	dup = dup || n.faults.Fire(faults.NetDup)
	jitter += n.faults.Latency(faults.NetReorder, 4*h.link.Latency+time.Millisecond)

	if h.queued+len(b) > h.link.QueueLimit {
		n.dropped.Add(1)
		bufpool.Put(b)
		return
	}
	now := n.clock.Now()
	start := h.nextFree
	if start < now {
		start = now
	}
	var txTime time.Duration
	if h.link.Bandwidth > 0 {
		txTime = time.Duration(int64(len(b)) * int64(time.Second) / h.link.Bandwidth)
	}
	h.nextFree = start + vclock.Time(txTime)
	h.queued += len(b)
	depart := h.nextFree

	p := n.packets.Get().(*packet)
	p.src, p.dst = h, peer
	p.data = b
	p.delay = h.link.Latency + jitter
	p.loss, p.dup = loss, dup

	// The packet leaves the queue at depart; it arrives Latency (+jitter)
	// later, unless lost.
	p.wire.Reset(time.Duration(depart - now))
}

func (h *Host) deliver(src string, data []byte) {
	h.net.delivered.Add(1)
	if h.handler != nil {
		h.handler(src, data)
	} else {
		bufpool.Put(data)
	}
}
