package loadgen

import (
	"fmt"
	"strconv"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/vclock"
)

// requestSeq is the flattened client request loop: issue count GETs for
// randomly chosen files over conn, consuming each response in full. It
// replaces the closure spelling ForN(count, oneRequest) — which rebuilt
// the request bytes, the head-read recursion, the body-drain recursion,
// and every Bind/NBIO closure per request — with one pump state struct
// allocated at M-application time. A steady-state request reuses the
// pump's request-byte buffer and the send and read traces — SockSendCell
// over the request buffer and SockReadCell over the read window, each
// applied once per session, and the modelled network Sleep (when
// RTT/Bandwidth are set), applied once per distinct delay — so the only
// per-request allocations left are that Sleep's timer and the error path.
// Its trace nodes are its system calls: the clock read when latency is
// measured, the send and read attempts with their parks, the Sleep, and
// one loop bounce; feeding, parsing and accounting run inline from the
// continuations of those.
func (g *Generator) requestSeq(conn kernel.FD, count int, next func() uint64, hb *httpd.HeadBuffer, buf []byte) core.M[core.Unit] {
	if count <= 0 {
		return core.Skip
	}
	return func(k func(core.Unit) core.Trace) core.Trace {
		s := &requestPump{
			g: g, clk: g.io.Clock(),
			conn: conn, count: count, next: next, hb: hb, buf: buf, k: k,
		}
		s.latNode.Effect = s.latEffect
		s.bounceNode.Effect = s.bounceEffect
		s.delayCont = s.account
		s.send = g.io.SockSendCell(conn, &s.req)(s.afterSend)
		s.read = g.io.SockReadCell(conn, &s.window)(s.afterRead)
		s.begin()
		return s.entry()
	}
}

const requestTail = " HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"

type requestPump struct {
	g    *Generator
	clk  vclock.Clock
	conn kernel.FD

	count int
	next  func() uint64
	hb    *httpd.HeadBuffer
	buf   []byte
	k     func(core.Unit) core.Trace

	i         int
	req       []byte // rendered request bytes, reused across requests: the send cell
	window    []byte // where the next read lands: the read cell
	draining  bool
	remaining int64
	length    int64
	status    int
	start     vclock.Time

	latNode    core.NBIONode
	bounceNode core.NBIONode

	send      core.Trace // SockSendCell(conn, &req), continuing at afterSend
	read      core.Trace // SockReadCell(conn, &window), continuing at afterRead
	delayCont func(core.Unit) core.Trace
	delay     core.Trace    // Sleep(delayFor), continuing at account
	delayFor  time.Duration // the delay that trace sleeps
}

// begin renders the next request into the reusable buffer.
func (s *requestPump) begin() {
	name := s.next() % uint64(s.g.cfg.Files)
	s.req = append(s.req[:0], "GET /file-"...)
	s.req = strconv.AppendUint(s.req, name, 10)
	s.req = append(s.req, requestTail...)
	s.draining = false
}

// entry is the first node of one request.
func (s *requestPump) entry() core.Trace {
	if s.g.lat != nil {
		return &s.latNode
	}
	return s.send
}

func (s *requestPump) latEffect() core.Trace {
	s.start = s.clk.Now()
	return s.send
}

func (s *requestPump) afterSend(int) core.Trace { return s.recv() }

// recv opens the read window — the whole buffer for the head, no more
// than what is left of the body — and forces the read.
func (s *requestPump) recv() core.Trace {
	s.window = s.buf
	if s.draining && int64(len(s.window)) > s.remaining {
		s.window = s.window[:s.remaining]
	}
	return s.read
}

func (s *requestPump) afterRead(n int) core.Trace {
	if s.draining {
		if n == 0 {
			return &core.ThrowNode{Err: fmt.Errorf("loadgen: truncated body")}
		}
		s.remaining -= int64(n)
		if s.remaining > 0 {
			return s.recv()
		}
		return s.afterBody()
	}
	if n == 0 {
		return &core.ThrowNode{Err: fmt.Errorf("loadgen: connection closed mid-response")}
	}
	head, err := s.hb.Feed(s.buf[:n])
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	if head == "" {
		return s.recv()
	}
	st, length, err := httpd.ParseResponseHead(head)
	if err != nil {
		return &core.ThrowNode{Err: err}
	}
	s.status = st
	if st >= 100 && st < 600 {
		s.g.Statuses[st/100].Add(1)
	}
	s.length = length
	// Part of the body may already be buffered past the head.
	buffered := int64(s.hb.Buffered())
	s.hb.Reset()
	s.remaining = length - buffered
	if s.remaining > 0 {
		s.draining = true
		return s.recv()
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

func (s *requestPump) bounceEffect() core.Trace {
	i := s.i + 1
	if i >= s.count {
		s.i = 0 // reset: a retained trace may replay this pump
		return s.k(core.Unit{})
	}
	s.i = i
	s.begin()
	return s.entry()
}
