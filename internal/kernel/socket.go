package kernel

import (
	"fmt"
	"sync"

	"hybrid/internal/faults"
	"hybrid/internal/waitq"
)

// Stream sockets: a connected socket is a pair of pipes cross-connected
// between the two endpoints; a listener holds a backlog of accepted-but-
// unclaimed connections. Connection setup is instantaneous — the kernel
// socket layer models the loopback path of the paper's testbed, while the
// timed network path goes through internal/netsim and the application-
// level TCP stack (§4.8).

// DefaultSocketBuffer is the per-direction socket buffer size.
const DefaultSocketBuffer = 65536

// socketEnd is one endpoint of a connected stream socket.
type socketEnd struct {
	rx *pipe // data flowing toward this endpoint
	tx *pipe // data flowing away from this endpoint
}

func (s *socketEnd) read(b []byte) (int, error)  { return s.rx.readData(b, len(b)) }
func (s *socketEnd) write(b []byte) (int, error) { return s.tx.writeData(b, false) }

func (s *socketEnd) closeEnd() error {
	// Closing a socket tears down both directions from this side: our
	// receive path stops accepting data and our transmit path signals EOF.
	errR := s.rx.closeRead()
	errW := s.tx.closeWrite()
	if errR != nil {
		return errR
	}
	return errW
}

// addWatch parks w on the direction its mask names: the receive pipe's
// readers, or the transmit pipe's writers.
func (s *socketEnd) addWatch(w *waitq.Waiter) {
	if Event(w.Mask)&EventWrite != 0 {
		s.tx.addWriter(w)
		return
	}
	s.rx.addReader(w)
}

// Listener accepts stream connections at a named address.
type Listener struct {
	k       *Kernel
	addr    string
	mu      sync.Mutex
	backlog []*socketEnd
	max     int
	closed  bool
	waiters waitq.List
}

func (l *Listener) read([]byte) (int, error)  { return 0, ErrInvalid }
func (l *Listener) write([]byte) (int, error) { return 0, ErrInvalid }

func (l *Listener) closeEnd() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	fired := l.waiters.Take(uint8(EventRead | EventHup))
	l.mu.Unlock()
	l.k.lmu.Lock()
	delete(l.k.listeners, l.addr)
	l.k.lmu.Unlock()
	l.k.fire(fired, EventRead|EventHup)
	return nil
}

func (l *Listener) addWatch(w *waitq.Waiter) {
	l.mu.Lock()
	l.k.park(&l.mu, l.readinessLocked(), &l.waiters, w)
}

func (l *Listener) readinessLocked() Event {
	var ev Event
	if len(l.backlog) > 0 || l.closed {
		ev |= EventRead
	}
	if l.closed {
		ev |= EventHup
	}
	return ev
}

// DefaultBacklog is the backlog capacity used when Listen is called with
// backlog 0, mirroring the SOMAXCONN default.
const DefaultBacklog = 128

// Listen binds a listener to addr with the given backlog capacity and
// returns its descriptor (watchable for EventRead = connection pending).
// A backlog of 0 selects DefaultBacklog; a negative backlog is EINVAL —
// it used to be clamped silently, hiding caller bugs where a computed
// limit went negative.
func (k *Kernel) Listen(addr string, backlog int) (FD, error) {
	if backlog < 0 {
		return 0, fmt.Errorf("listen %s: backlog %d: %w", addr, backlog, ErrInvalid)
	}
	if backlog == 0 {
		backlog = DefaultBacklog
	}
	k.lmu.Lock()
	if _, taken := k.listeners[addr]; taken {
		k.lmu.Unlock()
		return 0, fmt.Errorf("listen %s: %w", addr, ErrAddrInUse)
	}
	l := &Listener{k: k, addr: addr, max: backlog}
	k.listeners[addr] = l
	k.lmu.Unlock()
	return k.install(l), nil
}

// Accept takes a pending connection off listenFD's backlog, returning
// ErrAgain when none is pending (wrap with epoll exactly like the paper's
// sock_accept in Figure 10).
func (k *Kernel) Accept(listenFD FD) (FD, error) {
	e, err := k.lookup(listenFD)
	if err != nil {
		return 0, err
	}
	l, ok := e.(*Listener)
	if !ok {
		return 0, ErrInvalid
	}
	// Only the retryable accept errors are injected — an EIO here would
	// kill a server's accept loop rather than exercise its retry path.
	if err := k.faults.FireErr(faults.KernelAccept, ErrIntr, ErrConnAborted); err != nil {
		return 0, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if len(l.backlog) == 0 {
		l.mu.Unlock()
		return 0, ErrAgain
	}
	conn := l.backlog[0]
	l.backlog = l.backlog[1:]
	l.mu.Unlock()
	return k.install(conn), nil
}

// Connect establishes a stream connection to addr, returning the client
// descriptor. Setup is instantaneous; a full backlog or missing listener
// refuses the connection.
func (k *Kernel) Connect(addr string) (FD, error) {
	k.lmu.Lock()
	l := k.listeners[addr]
	k.lmu.Unlock()
	if l == nil {
		return 0, fmt.Errorf("connect %s: %w", addr, ErrConnRefused)
	}
	c2s := newPipe(k, DefaultSocketBuffer)
	s2c := newPipe(k, DefaultSocketBuffer)
	client := &socketEnd{rx: s2c, tx: c2s}
	server := &socketEnd{rx: c2s, tx: s2c}
	l.mu.Lock()
	if l.closed || len(l.backlog) >= l.max {
		full := !l.closed
		l.mu.Unlock()
		if full {
			k.backlogRejects.Inc()
		}
		return 0, fmt.Errorf("connect %s: %w", addr, ErrConnRefused)
	}
	l.backlog = append(l.backlog, server)
	fired := l.waiters.Take(uint8(EventRead))
	l.mu.Unlock()
	l.k.fire(fired, EventRead)
	return k.install(client), nil
}

// SocketPair creates a connected pair of stream sockets directly, without
// a listener (useful in tests and examples).
func (k *Kernel) SocketPair() (FD, FD) {
	ab := newPipe(k, DefaultSocketBuffer)
	ba := newPipe(k, DefaultSocketBuffer)
	a := &socketEnd{rx: ba, tx: ab}
	b := &socketEnd{rx: ab, tx: ba}
	return k.install(a), k.install(b)
}
