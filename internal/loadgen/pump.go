package loadgen

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// requestSeq is the client's request loop: count GETs for randomly
// chosen files over conn, each response consumed in full. One pump
// record, made when the M is applied, carries the loop: the request is
// rendered into the client's reused cell (b.req), and the send, the read
// and the modelled network Sleep (when RTT/Bandwidth are set) are traces
// applied once per session — the Sleep once per distinct delay. A
// response head is parsed where it landed, a view of the client's head
// buffer (b.hb), so a steady-state request allocates nothing: a re-forced
// Sleep re-arms its timer in place. The pump counts body bytes and never
// looks at them, so it never copies them: a head is read straight into
// the head buffer, one ring segment (bufpool.SegSize) at a time, and what
// the head's Content-Length leaves of the body past the bytes that came
// with it is dropped in the kernel (kernel.Discard). One read cell does
// both: before each read the pump points it at the head buffer's Room, or
// at hio.Sink. Its trace nodes are its system calls: the clock read
// when latency is measured, the send and read attempts with their parks,
// the Sleep, and one loop bounce; parsing and accounting run inline from
// the continuations of those.
func (g *Generator) requestSeq(conn kernel.FD, count int, next func() uint64, b *clientBufs) core.M[core.Unit] {
	if count <= 0 {
		return core.Skip
	}
	return func(k func(core.Unit) core.Trace) core.Trace {
		s := &requestPump{
			g: g, clk: g.io.Clock(),
			conn: conn, count: count, next: next, b: b, k: k,
		}
		s.latNode.Stepper, s.bounceNode.Stepper = (*stamp)(s), s
		s.delayCont = s.account
		s.send = g.io.SockSendCell(conn, &b.req, false)(s.afterSend)
		s.read = g.io.SockReadCell(conn, &s.window)(s.afterRead)
		s.begin()
		return s.entry()
	}
}

const requestTail = " HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

// errNoLength fails a response whose head carries no usable
// Content-Length: the pump frames a body by that header alone.
var errNoLength = errors.New("loadgen: malformed response: no usable Content-Length")

// clientBufs is what one client reuses across its whole request sequence
// and every session of it: the head buffer its responses land in (each
// response leaves it empty) and the cell its requests are rendered into,
// which the pump's send reads.
type clientBufs struct {
	hb  httpd.HeadBuffer
	req []byte
}

type requestPump struct {
	g    *Generator
	clk  vclock.Clock
	conn kernel.FD

	count int
	next  func() uint64
	b     *clientBufs
	k     func(core.Unit) core.Trace

	i      int
	window []byte // where the next read lands, the read cell: Room in b.hb, or the Sink
	rest   int    // body bytes still to discard
	length int64
	status int
	start  vclock.Time

	latNode    core.NBIONode
	bounceNode core.NBIONode

	send      core.Trace // SockSendCell(conn, &b.req, false), continuing at afterSend
	read      core.Trace // SockReadCell(conn, &window), continuing at afterRead
	delayCont func(core.Unit) core.Trace
	delay     core.Trace    // Sleep(delayFor), continuing at account
	delayFor  time.Duration // the delay that trace sleeps
}

// begin renders the next request into the client's send cell.
func (s *requestPump) begin() {
	name := s.next() % uint64(s.g.cfg.Files)
	req := append(s.b.req[:0], "GET /file-"...)
	req = strconv.AppendUint(req, name, 10)
	s.b.req = append(req, requestTail...)
}

// entry is the first node of one request.
func (s *requestPump) entry() core.Trace {
	if s.g.lat != nil {
		return &s.latNode
	}
	return s.send
}

// stamp is the pump stepped as its latNode: the request's start time.
type stamp requestPump

func (t *stamp) Step() core.Trace {
	s := (*requestPump)(t)
	s.start = s.clk.Now()
	return s.send
}

func (s *requestPump) afterSend(int) core.Trace { return s.readHead() }

// readHead points the read at room for one ring segment at the end of
// the head buffer, and forces it.
func (s *requestPump) readHead() core.Trace {
	s.window, s.rest = s.b.hb.Room(bufpool.SegSize), 0
	return s.read
}

// discard forces a read that drops what is left of the body.
func (s *requestPump) discard() core.Trace {
	s.window = hio.Sink(s.rest)
	return s.read
}

func (s *requestPump) afterRead(n int) core.Trace {
	if s.rest > 0 {
		if n == 0 {
			return &core.ThrowNode{Err: fmt.Errorf("loadgen: truncated body")}
		}
		s.rest -= n
		if s.rest > 0 {
			return s.discard()
		}
		return s.afterBody()
	}
	if n == 0 {
		return &core.ThrowNode{Err: fmt.Errorf("loadgen: connection closed mid-response")}
	}
	head, err := s.b.hb.Fill(n)
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if head == "" {
		return s.readHead()
	}
	st, length, err := httpd.ParseResponseHead(head)
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if length < 0 {
		return &core.ThrowNode{Err: errNoLength}
	}
	s.status = st
	if st >= 100 && st < 600 {
		s.g.Statuses[st/100].Add(1)
	}
	s.length = length
	// Part of the body may already be buffered past the head; the rest
	// is dropped unread.
	unread := length - int64(s.b.hb.Buffered())
	s.b.hb.Reset()
	if unread > 0 {
		s.rest = int(unread)
		return s.discard()
	}
	return s.afterBody()
}

// afterBody charges the modelled network time, then accounts. The delay
// depends on the response length, so its Sleep is applied again only when
// the length moves it; a zero delay accounts at once.
func (s *requestPump) afterBody() core.Trace {
	d := s.g.netDelay(s.length)
	if d <= 0 {
		return s.account(core.Unit{})
	}
	if s.delay == nil || d != s.delayFor {
		s.delay, s.delayFor = s.g.io.Sleep(d)(s.delayCont), d
	}
	return s.delay
}

// account books the finished request and bounces to the next.
func (s *requestPump) account(core.Unit) core.Trace {
	g := s.g
	g.Requests.Add(1)
	g.Bytes.Add(uint64(s.length))
	if s.status/100 == 2 {
		g.Goodput.Add(uint64(s.length))
	}
	if g.lat != nil {
		g.lat.Observe(int64(time.Duration(s.clk.Now()-s.start) / time.Microsecond))
	}
	return &s.bounceNode
}

// Step, the pump stepped as its bounceNode, starts the next request.
func (s *requestPump) Step() core.Trace {
	i := s.i + 1
	if i >= s.count {
		s.i = 0 // reset: a retained trace may replay this pump
		return s.k(core.Unit{})
	}
	s.i = i
	s.begin()
	return s.entry()
}
