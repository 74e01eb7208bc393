package tcp

import (
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/iovec"
	"hybrid/internal/vclock"
	"hybrid/internal/waitq"
)

// State is a TCP connection state (RFC 793 §3.2). The underlying type is
// uint8: the state rides in every TCB and there are ten of them.
type State uint8

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1",
	"FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

func (st State) String() string {
	if int(st) < len(stateNames) {
		return stateNames[st]
	}
	return "UNKNOWN"
}

// rtxSeg is one sent-but-unacknowledged segment. The payload vector
// shares the send buffer's storage: retransmission holds references, not
// copies.
type rtxSeg struct {
	payload       iovec.Vec
	seq           uint32
	retries       int32
	flags         Flags
	retransmitted bool
	// Scoreboard marks (SACK connections only). sacked: the peer reported
	// this segment received, so it occupies no pipe and must not be
	// retransmitted. rexInRec: already retransmitted during the current
	// recovery episode (RFC 6675 retransmits each hole once per episode).
	sacked   bool
	rexInRec bool
}

func (r *rtxSeg) seqEnd() uint32 {
	n := r.seq + uint32(r.payload.Len())
	if r.flags&FlagSYN != 0 {
		n++
	}
	if r.flags&FlagFIN != 0 {
		n++
	}
	return n
}

// Conn is one TCP connection, owned as its stack is (see Stack);
// user-facing methods are the Try*/On* pairs at the bottom plus the
// monadic wrappers in api.go.
// Fields are ordered for packing, not by subsystem: pointer-bearing
// fields first, then 8-byte scalars, then 4-byte, then the flag bytes —
// a parked keep-alive connection's footprint is the TCB plus nothing,
// so every pad hole here is multiplied by the live-connection count
// (Figure 22 carries a million of them).
type Conn struct {
	s        *Stack
	err      error
	listener *Listener // for SYN_RCVD conns created by a listener
	key      connKey

	// Send side. sndBuf chains user data not yet segmented (zero-copy).
	sndBuf iovec.Queue
	rtx    []rtxSeg

	// Congestion control: cwnd/ssthresh arithmetic lives in the
	// controller; loss detection and recovery sequencing live here.
	cc CongestionController

	// SACK (RFC 2018). sackOn (below) is set when both SYNs carried
	// FlagSACKOK; sacks is the receive-side record of out-of-order
	// ranges reported on every outgoing ACK.
	sacks sackRanges

	// Receive side. rcvBuf chains one payload per pooled datagram in
	// rcvHeld, oldest first, so a read that shortens rcvBuf's segment
	// count has emptied that many datagrams. ooo is the reassembly map,
	// allocated lazily on the first out-of-order arrival and dropped when
	// drained — an in-order connection never pays for it. Its datagrams
	// are cut where their payload ends, so the payload is d[headerSize:].
	rcvBuf  iovec.Vec
	rcvHeld [][]byte
	ooo     map[uint32][]byte // seq -> out-of-order datagram

	// Parked user operations: each list holds the waiters of one ready
	// hook, one-shot, linked through the records that wait. A state
	// change collects the waiters it readies into a list of its own and
	// wakes them once it is complete, not where it finds them: a waker
	// may re-enter the stack synchronously (tracecheck's call TryRead and
	// TryWriteV from Wake).
	recvW, sendW, estW waitq.List

	// Timers: owned clock timers, each made at its first arm with its
	// callback bound once, so a re-arm allocates nothing. rtoAt and
	// persistAt are the armed flags: a deadline is nonzero while its
	// timer is armed.
	rtoTimer     *vclock.Timer
	persistTimer *vclock.Timer
	twTimer      *vclock.Timer
	rtoAt        vclock.Time
	persistAt    vclock.Time

	// RTT estimation (RFC 6298, with Karn's algorithm).
	srtt, rttvar time.Duration
	rto          time.Duration
	rttStart     vclock.Time

	// Sequence-space scalars.
	iss     uint32
	sndUna  uint32
	sndNxt  uint32
	sndWnd  uint32 // peer's advertised window
	finSeq  uint32
	recover uint32 // sndNxt when recovery began; full ACK past it ends the episode
	rttSeq  uint32
	irs     uint32
	rcvNxt  uint32
	// oooFinSeq is live only while oooFin is set: the sequence number of
	// a FIN that arrived ahead of a reassembly hole.
	oooFinSeq         uint32
	lastWndAdvertised uint32
	dupAcks           int32

	state     State
	finQueued bool
	finSent   bool
	// inRecovery: loss recovery (RFC 6582/6675; only entered when the
	// stack is configured with SACK or NewReno — the legacy machine has
	// no recovery state).
	inRecovery bool
	sackOn     bool
	rttPending bool
	oooFin     bool
	finRcvd    bool
}

// --- Accessors -------------------------------------------------------------

// Err reports the connection's terminal error, if any.
func (c *Conn) Err() error { return c.err }

// --- Segment transmission ---------------------------------------------------

// rcvWindow is the receive window to advertise.
func (c *Conn) rcvWindow() uint32 {
	used := c.rcvBuf.Len()
	if used >= bufSize {
		return 0
	}
	return uint32(bufSize - used)
}

// sendSeg transmits a segment carrying flags and payload at sndNxt,
// advancing sndNxt and recording it for retransmission when track is set.
func (c *Conn) sendSeg(flags Flags, payload iovec.Vec, track bool) {
	r := rtxSeg{seq: c.sndNxt, flags: flags, payload: payload}
	if track {
		c.rtx = append(c.rtx, r)
		c.sndNxt = r.seqEnd()
		// RTT sampling: time the newest tracked segment if no sample is
		// in flight.
		if !c.rttPending {
			c.rttPending = true
			c.rttSeq = c.sndNxt
			c.rttStart = c.s.clock.Now()
		}
		c.armRTO()
	}
	c.s.m.bytesOut.Add(uint64(payload.Len()))
	c.lastWndAdvertised = c.emit(&r, false)
}

// emit builds the segment r records and transmits it, returning the
// window it advertises; rexmit marks a retransmission on the trace. ACK
// and the current window ride along on everything except the initial
// SYN, and a SACK connection's blocks on every ACK.
func (c *Conn) emit(r *rtxSeg, rexmit bool) uint32 {
	seg := Segment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     r.seq,
		Flags:   r.flags,
		Window:  c.rcvWindow(),
		Payload: r.payload,
	}
	// Everything after the first SYN acknowledges. (The first SYN may
	// carry FlagSACKOK, so test for "bare SYN" by flag content, not
	// equality.)
	if r.flags&FlagSYN == 0 || r.flags&FlagACK != 0 {
		seg.Flags |= FlagACK
		seg.Ack = c.rcvNxt
	}
	if c.sackOn && seg.Flags&FlagACK != 0 {
		seg.Sack = c.sacks.blks // encoded before anything can change it
	}
	c.s.m.segsOut.Inc()
	c.s.trace(&seg, c.cc.Cwnd(), rexmit)
	c.s.sendSeg(c.key.remoteAddr, &seg)
	return seg.Window
}

// retransmit is the one loss-driven retransmission: r is marked
// retransmitted, the RTT sample in flight is dropped (Karn's rule: no
// sample across a retransmission), and r goes out again.
func (c *Conn) retransmit(r *rtxSeg) {
	r.retransmitted = true
	c.rttPending = false
	c.emit(r, true)
}

// sendAck emits a bare ACK with the current window.
func (c *Conn) sendAck() {
	c.sendSeg(FlagACK, iovec.Vec{}, false)
}

// flight is the amount of unacknowledged sequence space.
func (c *Conn) flight() uint32 { return c.sndNxt - c.sndUna }

// recoveryEnabled reports whether this connection runs the RFC 6582/6675
// recovery machine (as opposed to the legacy retransmit-and-halve one).
// SACK implies it even when the peer did not grant SACK — the connection
// then degrades to NewReno.
func (c *Conn) recoveryEnabled() bool { return c.s.cfg.SACK || c.s.cfg.NewReno }

// markSacked folds a received SACK option into the scoreboard:
// every tracked segment wholly inside a reported block is marked received.
func (c *Conn) markSacked(blocks []SackBlock) {
	for _, b := range blocks {
		if !seqLT(b.Start, b.End) {
			continue
		}
		for i := range c.rtx {
			r := &c.rtx[i]
			if !r.sacked && seqGEQ(r.seq, b.Start) && seqLEQ(r.seqEnd(), b.End) {
				r.sacked = true
			}
		}
	}
}

// sackedBytes is the sequence space the scoreboard knows has left
// the network. Zero on non-SACK connections (no marks ever set).
func (c *Conn) sackedBytes() uint32 {
	var n uint32
	for i := range c.rtx {
		if c.rtx[i].sacked {
			n += c.rtx[i].seqEnd() - c.rtx[i].seq
		}
	}
	return n
}

// clearScoreboard forgets all SACK and per-episode marks.
func (c *Conn) clearScoreboard() {
	for i := range c.rtx {
		c.rtx[i].sacked = false
		c.rtx[i].rexInRec = false
	}
}

// sackRexmit is the scoreboard-driven retransmission pump (RFC 6675
// NextSeg, simplified): while the pipe — flight minus SACKed space — has
// room under cwnd, retransmit the earliest hole not yet retransmitted this
// episode. Holes are segments below `recover` that the scoreboard has not
// marked; segments above `recover` were sent after the episode began and
// are the RTO's problem if they too are lost.
func (c *Conn) sackRexmit() {
	cwnd := c.cc.Cwnd()
	pipe := c.flight() - c.sackedBytes()
	for i := range c.rtx {
		r := &c.rtx[i]
		if r.sacked || r.rexInRec || seqGEQ(r.seq, c.recover) {
			continue
		}
		size := r.seqEnd() - r.seq
		if pipe+size > cwnd {
			break
		}
		r.rexInRec = true
		c.s.m.recoveryRexmits.Inc()
		c.retransmit(r)
		pipe += size
	}
}

// trySend pumps queued user data (and a queued FIN) into segments,
// respecting min(cwnd, peer window), and gathers user wakeups into w.
func (c *Conn) trySend(w *waitq.List) {
	const mss = uint32(MSS)
	for !c.sndBuf.Empty() {
		wnd := c.cc.Cwnd()
		if c.sndWnd < wnd {
			wnd = c.sndWnd
		}
		flight := c.flight()
		// Pipe accounting (RFC 6675): SACKed sequence space has left the
		// network, so it does not count against the window. Zero for
		// non-SACK connections.
		outstanding := flight - c.sackedBytes()
		if outstanding >= wnd {
			if c.sndWnd == 0 && flight == 0 {
				c.armPersist()
			}
			break
		}
		n := wnd - outstanding
		if n > mss {
			n = mss
		}
		if int(n) > c.sndBuf.Len() {
			n = uint32(c.sndBuf.Len())
		}
		// Zero-copy: the segment and its retransmission record share the
		// send buffer's storage.
		c.sendSeg(FlagACK, c.sndBuf.Cut(int(n)), true)
	}
	// FIN goes out once the send queue is empty.
	if c.finQueued && !c.finSent && c.sndBuf.Empty() &&
		(c.state == StateEstablished || c.state == StateCloseWait) {
		c.finSent = true
		c.finSeq = c.sndNxt
		c.sendSeg(FlagFIN, iovec.Vec{}, true)
		if c.state == StateEstablished {
			c.state = StateFinWait1
		} else {
			c.state = StateLastAck
		}
	}
	// Space opened for blocked writers?
	if c.sndBuf.Len() < bufSize {
		w.Append(&c.sendW)
	}
}

// --- Timers ------------------------------------------------------------------

// arm arms *t to fire d from now and records the deadline in *at.
// A nil *t is made here, bound to fire(c); fire is a method expression so
// that a re-arm does not build a method value.
func (c *Conn) arm(t **vclock.Timer, at *vclock.Time, d time.Duration, fire func(*Conn)) {
	if *t == nil {
		*t = c.s.clock.NewTimer(func() { fire(c) })
	}
	*at = c.s.clock.Now() + vclock.Time(d)
	(*t).Reset(d)
}

// disarm stops t if its deadline *at is armed, and clears it.
func disarm(t *vclock.Timer, at *vclock.Time) {
	if *at != 0 {
		t.Stop()
		*at = 0
	}
}

// due clears the armed deadline *at of the timer whose callback runs, and
// reports whether the callback is live: the connection is still open. On
// a virtual clock Stop and Reset are exact, so a callback that runs was
// armed and its deadline has come.
func (c *Conn) due(at *vclock.Time) bool {
	*at = 0
	return c.state != StateClosed
}

// armRTO starts the retransmission timer if segments are in flight
// and it is not already running.
func (c *Conn) armRTO() {
	if c.rtoAt != 0 || len(c.rtx) == 0 {
		return
	}
	c.arm(&c.rtoTimer, &c.rtoAt, c.rto, (*Conn).rtoFired)
}

// rtoFired is the retransmission timer's callback.
func (c *Conn) rtoFired() {
	if c.due(&c.rtoAt) {
		var w waitq.List
		c.onRTO(&w)
		w.WakeAll(0)
	}
}

// restartRTO cancels and re-arms the retransmission timer.
func (c *Conn) restartRTO() {
	c.cancelRTO()
	c.armRTO()
}

func (c *Conn) cancelRTO() { disarm(c.rtoTimer, &c.rtoAt) }

// onRTO handles a retransmission timeout: exponential backoff,
// congestion response, and retransmission of the earliest unacked segment
// (the paper's worker_tcp_timer events land here).
func (c *Conn) onRTO(w *waitq.List) {
	if len(c.rtx) == 0 {
		return
	}
	c.s.m.rtoExpiries.Inc()
	r := &c.rtx[0]
	if int(r.retries) >= c.s.cfg.MaxRetries {
		c.teardown(ErrTimeout, w)
		return
	}
	r.retries++
	c.s.m.retransmits.Inc()
	// Reneging safety (RFC 2018 §8): on timeout, forget everything the
	// scoreboard learned and abandon any open recovery episode — the
	// retransmission below must not be suppressed by stale SACK marks.
	c.clearScoreboard()
	c.inRecovery = false
	// RFC 5681 congestion response to loss.
	c.cc.OnRTO(c.flight())
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	c.retransmit(r)
	c.armRTO()
}

// armPersist schedules a zero-window probe.
func (c *Conn) armPersist() {
	if c.persistAt != 0 {
		return
	}
	c.arm(&c.persistTimer, &c.persistAt, c.rto, (*Conn).persistFired)
}

// persistFired is the persist timer's callback.
func (c *Conn) persistFired() {
	switch {
	case !c.due(&c.persistAt):
	case c.sndWnd == 0 && !c.sndBuf.Empty() && c.flight() == 0:
		// Probe with one byte beyond the window; the receiver's buffer is
		// elastic enough to absorb and acknowledge it.
		c.s.m.zeroWindowProbes.Inc()
		c.sendSeg(FlagACK, c.sndBuf.Cut(1), true)
	default:
		var w waitq.List
		c.trySend(&w)
		w.WakeAll(0)
	}
}

func (c *Conn) cancelPersist() { disarm(c.persistTimer, &c.persistAt) }

// enterTimeWait starts the 2*MSL timer and transitions. The state
// is the timer's guard: nothing leaves TIME_WAIT but the timer, or a
// teardown that stops it.
func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.cancelRTO()
	if c.twTimer == nil {
		c.twTimer = c.s.clock.NewTimer(c.timeWaitFired)
	}
	c.twTimer.Reset(2 * msl)
}

// timeWaitFired is the TIME_WAIT timer's callback.
func (c *Conn) timeWaitFired() {
	if c.state == StateTimeWait {
		c.state = StateClosed
		c.s.removeConn(c)
	}
}

// teardown aborts the connection with err and gathers every parked
// operation's wakeup into w.
func (c *Conn) teardown(err error, w *waitq.List) {
	if c.state == StateClosed {
		return
	}
	if c.state == StateSynRcvd && c.listener != nil {
		c.listener.pending-- // embryonic connection dies
	}
	c.state = StateClosed
	if c.err == nil {
		c.err = err
	}
	c.cancelRTO()
	c.cancelPersist()
	c.twTimer.Stop()
	c.s.removeConn(c)
	w.Append(&c.recvW)
	w.Append(&c.sendW)
	w.Append(&c.estW)
}

// --- Input processing ---------------------------------------------------------

// process runs the state machine on one inbound segment, decoded from
// the pooled datagram wire, gathering into w the user wakeups to run once
// the state change is complete. It reports whether the connection kept
// wire.
func (c *Conn) process(seg *Segment, wire []byte, w *waitq.List) (kept bool) {
	if seg.Flags&FlagRST != 0 {
		err := ErrConnReset
		if c.state == StateSynSent {
			err = ErrRefused
		}
		c.s.m.rstsIn.Inc()
		c.teardown(err, w)
		return false
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK {
			if seg.Ack != c.iss+1 {
				return false // stale; a real stack would RST
			}
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			// SACK is on only when we asked on our SYN (cfg.SACK) and the
			// peer granted it on the SYN-ACK (RFC 2018 §2).
			c.sackOn = c.s.cfg.SACK && seg.Flags&FlagSACKOK != 0
			c.state = StateEstablished
			c.acceptAck(seg, w)
			c.sendAck()
			w.Append(&c.estW)
		}
		return false

	case StateSynRcvd:
		if seg.Flags&FlagSYN != 0 && seg.Seq+1 == c.rcvNxt {
			// Retransmitted SYN: our SYN-ACK was lost; resend it from rtx.
			// It is not marked retransmitted, so the handshake's RTT
			// sample survives the resend.
			if len(c.rtx) > 0 {
				c.emit(&c.rtx[0], true)
			}
			return false
		}
		if seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.state = StateEstablished
			if c.listener != nil {
				c.listener.pending--
				c.listener.deliver(c, w)
			}
			w.Append(&c.estW)
			c.acceptAck(seg, w)
			// Data may ride on the handshake ACK.
			return c.processData(seg, wire, w)
		}
		return false

	case StateClosed:
		return false
	}

	// A retransmitted SYN or SYN-ACK means the peer never saw our
	// handshake ACK; re-acknowledge so it can leave SYN_RCVD (RFC 793's
	// response to an old duplicate SYN).
	if seg.Flags&FlagSYN != 0 && seqLT(seg.Seq, c.rcvNxt) {
		c.sendAck()
		return false
	}
	// Established and closing states: ACK processing first, then data.
	if seg.Flags&FlagACK != 0 {
		c.acceptAck(seg, w)
	}
	return c.processData(seg, wire, w)
}

// acceptAck handles the ACK and window fields.
func (c *Conn) acceptAck(seg *Segment, w *waitq.List) {
	ack := seg.Ack
	// SACK blocks may ride on any ACK (duplicate or advancing): fold them
	// into the scoreboard before acting on the cumulative field.
	if c.sackOn && len(seg.Sack) > 0 {
		c.markSacked(seg.Sack)
	}
	switch {
	case seqGT(ack, c.sndUna) && seqLEQ(ack, c.sndNxt):
		acked := ack - c.sndUna
		c.sndUna = ack
		// Drop fully acknowledged segments from the retransmission queue.
		kept := c.rtx[:0]
		sawRetransmit := false
		for i := range c.rtx {
			if seqLEQ(c.rtx[i].seqEnd(), ack) {
				if c.rtx[i].retransmitted {
					sawRetransmit = true
				}
				continue
			}
			kept = append(kept, c.rtx[i])
		}
		c.rtx = kept
		// RTT sample (Karn: only when nothing acked was retransmitted).
		if c.rttPending && seqGEQ(ack, c.rttSeq) {
			c.rttPending = false
			if !sawRetransmit {
				c.updateRTT(time.Duration(c.s.clock.Now() - c.rttStart))
			}
		}
		// Congestion response. Inside a recovery episode an advancing ACK
		// is either partial (the next hole is still missing: retransmit it
		// now, deflate) or full (past `recover`: the episode ends); outside
		// one — always, for the legacy machine — the window grows.
		if c.inRecovery && seqLT(ack, c.recover) {
			if c.sackOn {
				c.sackRexmit()
			} else if len(c.rtx) > 0 {
				c.s.m.recoveryRexmits.Inc()
				c.retransmit(&c.rtx[0])
			}
			c.cc.OnPartialAck(acked)
		} else {
			if c.inRecovery {
				c.inRecovery = false
				c.clearScoreboard()
				c.cc.OnExitRecovery(c.s.clock.Now())
			} else {
				c.cc.OnAck(acked, c.srtt, c.s.clock.Now())
			}
			c.dupAcks = 0
		}
		if len(c.rtx) == 0 {
			c.cancelRTO()
		} else {
			c.restartRTO()
		}
		// FIN acknowledged?
		if c.finSent && seqGT(ack, c.finSeq) {
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
			case StateClosing:
				c.enterTimeWait()
			case StateLastAck:
				c.state = StateClosed
				c.s.removeConn(c)
				w.Append(&c.recvW)
				w.Append(&c.sendW)
			}
		}
	case ack == c.sndUna && seg.Payload.Empty() && c.flight() > 0:
		// Duplicate ACK (RFC 5681 fast retransmit).
		c.s.m.dupAcksIn.Inc()
		c.dupAcks++
		switch {
		case !c.recoveryEnabled():
			// Legacy machine: retransmit-and-halve at the third dupack,
			// no recovery episode (every subsequent advancing ACK grows
			// the window again).
			if c.dupAcks == 3 && len(c.rtx) > 0 {
				c.s.m.fastRetransmits.Inc()
				c.cc.OnEnterRecovery(c.flight(), c.s.clock.Now())
				c.retransmit(&c.rtx[0])
			}
		case c.inRecovery:
			// Further dupacks during recovery: with SACK they carry fresh
			// scoreboard marks (folded in above), which may open pipe for
			// the next hole.
			if c.sackOn {
				c.sackRexmit()
			}
		case c.dupAcks == 3 && len(c.rtx) > 0:
			// Enter recovery (RFC 6582/6675): remember where the flight
			// ends so a full ACK can close the episode, cut the window,
			// retransmit the first hole, and with SACK fill whatever pipe
			// remains.
			c.s.m.fastRetransmits.Inc()
			c.s.m.fastRecoveries.Inc()
			c.inRecovery = true
			c.recover = c.sndNxt
			c.cc.OnEnterRecovery(c.flight(), c.s.clock.Now())
			c.rtx[0].rexInRec = true
			c.retransmit(&c.rtx[0])
			if c.sackOn {
				c.sackRexmit()
			}
		}
	}
	// Window update, from current ACKs only (a reordered old segment must
	// not shrink the window).
	if seqGEQ(seg.Ack, c.sndUna) {
		c.sndWnd = seg.Window
		if c.sndWnd > 0 {
			c.cancelPersist()
		}
	}
	c.trySend(w)
}

// updateRTT folds one RTT measurement into SRTT/RTTVAR (RFC 6298).
func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.s.cfg.RTOMin {
		rto = c.s.cfg.RTOMin
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	c.rto = rto
}

// processData handles payload bytes and FIN sequencing, and
// reports whether it kept wire, the datagram the payload lies in.
func (c *Conn) processData(seg *Segment, wire []byte, w *waitq.List) (kept bool) {
	hasFin := seg.Flags&FlagFIN != 0
	payload := seg.Payload
	seq := seg.Seq

	if payload.Empty() && !hasFin {
		return false
	}

	// Trim overlap with already-received data.
	if !payload.Empty() && seqLT(seq, c.rcvNxt) {
		skip := int(c.rcvNxt - seq)
		if payload.Len() <= skip {
			payload = iovec.Vec{}
		} else {
			payload = payload.Drop(skip)
		}
		seq = c.rcvNxt
	}

	progressed := false
	switch {
	case !payload.Empty() && seq == c.rcvNxt:
		// Zero-copy: the receive buffer chains the decoded segment's
		// storage; the one copy happens when the user reads.
		c.chain(payload, wire)
		kept = true
		progressed = true
		c.drainOOO()
	case !payload.Empty() && seqGT(seq, c.rcvNxt):
		c.s.m.outOfOrderIn.Inc()
		if len(c.ooo) < 1024 {
			// Of two segments that start together the longer is kept, and
			// a connection already removed keeps nothing to reassemble.
			old, dup := c.ooo[seq]
			if (!dup || len(old)-headerSize < payload.Len()) && c.state != StateClosed {
				if c.ooo == nil {
					c.ooo = make(map[uint32][]byte)
				}
				if dup {
					bufpool.Put(old)
				}
				c.ooo[seq] = wire[:headerSize+payload.Len()]
				kept = true
			}
			// Record the range for SACK only when the data is actually
			// retained — never report sequence space we dropped.
			if c.sackOn {
				c.sacks.add(seq, seq+uint32(payload.Len()))
			}
		}
	}

	if hasFin {
		finSeq := seg.Seq + uint32(seg.Payload.Len())
		switch {
		case finSeq == c.rcvNxt && !c.finRcvd:
			c.rcvNxt++
			c.finRcvd = true
			progressed = true
			c.onPeerFin()
		case seqGT(finSeq, c.rcvNxt):
			c.oooFin = true
			c.oooFinSeq = finSeq
		}
	}

	if c.sackOn && progressed {
		// The cumulative ACK moved: drop ranges it swallowed.
		c.sacks.trim(c.rcvNxt)
	}
	if progressed {
		w.Append(&c.recvW)
	}
	// Acknowledge at once any segment that carried sequence space: an
	// out-of-order arrival's ACK is the dup-ack the sender's fast
	// retransmit needs.
	if c.state != StateClosed {
		c.sendAck()
	}
	return kept
}

// chain appends the in-order payload to the receive queue, which
// holds wire, the datagram it lies in, until a read takes its last byte.
func (c *Conn) chain(payload iovec.Vec, wire []byte) {
	c.rcvBuf = c.rcvBuf.Concat(payload)
	c.rcvNxt += uint32(payload.Len())
	c.rcvHeld = append(c.rcvHeld, wire)
}

// drainOOO chains the reassembly entries the cumulative ACK has
// reached: the one starting at rcvNxt, else the one straddling it that
// reaches furthest, trimmed to its bytes past rcvNxt. An entry wholly
// below rcvNxt holds nothing new and goes back to the pool. Then a
// deferred FIN applies if it lines up.
func (c *Conn) drainOOO() {
	for len(c.ooo) > 0 {
		seq := c.rcvNxt
		d, ok := c.ooo[seq]
		if !ok {
			var end uint32
			for s, o := range c.ooo {
				oEnd := s + uint32(len(o)-headerSize)
				switch {
				case seqLEQ(oEnd, c.rcvNxt):
					delete(c.ooo, s)
					bufpool.Put(o)
				case seqLT(s, c.rcvNxt) && (!ok || seqGT(oEnd, end)):
					seq, d, end, ok = s, o, oEnd, true
				}
			}
			if !ok {
				break
			}
		}
		delete(c.ooo, seq)
		c.chain(iovec.FromBytes(d[headerSize+int(c.rcvNxt-seq):]), d)
	}
	if len(c.ooo) == 0 {
		// Drop the drained reassembly map; the next loss re-allocates it.
		c.ooo = nil
	}
	if c.oooFin && c.oooFinSeq == c.rcvNxt && !c.finRcvd {
		c.rcvNxt++
		c.finRcvd = true
		c.oooFin = false
		c.onPeerFin()
	}
}

// onPeerFin applies the state transition for a received FIN.
func (c *Conn) onPeerFin() {
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		if c.finSent && seqGT(c.sndUna, c.finSeq) {
			c.enterTimeWait()
		} else {
			c.state = StateClosing
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
}

// --- User operations (nonblocking core + ready hooks) -------------------------

// TryRead copies buffered stream data into p. It returns ErrWouldBlock
// when no data is available yet, (0, nil) at end of stream, and the
// connection's error after an abort.
func (c *Conn) TryRead(p []byte) (int, error) {
	defer c.s.enter()()
	if c.rcvBuf.Empty() {
		switch {
		case c.err != nil:
			return 0, c.err
		case c.finRcvd:
			return 0, nil // EOF
		case c.state == StateClosed:
			return 0, ErrClosed
		default:
			return 0, ErrWouldBlock
		}
	}
	n := c.rcvBuf.CopyTo(p)
	c.rcvBuf = c.rcvBuf.Drop(n)
	// The datagrams whose last byte this read took go back to the pool;
	// the list keeps its storage.
	read := len(c.rcvHeld) - c.rcvBuf.Segments()
	for _, d := range c.rcvHeld[:read] {
		bufpool.Put(d)
	}
	k := copy(c.rcvHeld, c.rcvHeld[read:])
	clear(c.rcvHeld[k:])
	c.rcvHeld = c.rcvHeld[:k]
	// Window update: if the advertised window was (near) zero and has
	// reopened, tell the peer.
	if c.lastWndAdvertised < MSS &&
		c.rcvWindow() >= MSS &&
		c.state != StateClosed {
		c.sendAck()
	}
	return n, nil
}

// OnRecvReady parks w, one-shot, until TryRead may make progress (data,
// EOF, or error).
func (c *Conn) OnRecvReady(w *waitq.Waiter) {
	hook(!c.rcvBuf.Empty() || c.finRcvd || c.err != nil || c.state == StateClosed, &c.recvW, w)
}

// OnSendReady parks w, one-shot, until TryWriteV may accept data again.
func (c *Conn) OnSendReady(w *waitq.Waiter) {
	hook(c.sndBuf.Len() < bufSize || c.err != nil || c.state == StateClosed, &c.sendW, w)
}

// OnEstablished parks w, one-shot, until the connection leaves
// SYN_SENT/SYN_RCVD (established or failed).
func (c *Conn) OnEstablished(w *waitq.Waiter) {
	hook(c.state != StateSynSent && c.state != StateSynRcvd, &c.estW, w)
}

// Close closes the send direction: queued data is delivered, then a FIN.
// Reads continue to drain data already received and end at the peer's
// FIN. Close is idempotent.
func (c *Conn) Close() {
	defer c.s.enter()()
	if c.err != nil || c.finQueued || c.state == StateClosed {
		return
	}
	c.finQueued = true
	var w waitq.List
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend(&w)
	}
	w.WakeAll(0)
}

// Abort sends an RST and tears the connection down immediately.
func (c *Conn) Abort() {
	defer c.s.enter()()
	if c.state == StateClosed {
		return
	}
	rst := Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagRST | FlagACK,
	}
	c.s.m.rstsOut.Inc()
	c.s.trace(&rst, c.cc.Cwnd(), false)
	c.s.sendSeg(c.key.remoteAddr, &rst)
	var w waitq.List
	c.teardown(ErrClosed, &w)
	w.WakeAll(0)
}

// TryWriteV queues an I/O vector for transmission without copying: the
// stack takes ownership of the vector's storage, which must not be
// mutated afterwards. It may accept a prefix, reporting how many bytes
// were taken, and returns ErrWouldBlock when the send buffer is full.
// This is the zero-copy entry point of §5.2 and the stack's one queueing
// path: a caller whose bytes may change copies them first (WriteM).
func (c *Conn) TryWriteV(v iovec.Vec) (int, error) {
	defer c.s.enter()()
	if c.err != nil {
		return 0, c.err
	}
	if c.finQueued || c.finSent {
		return 0, ErrClosed
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		return 0, ErrClosed
	}
	space := bufSize - c.sndBuf.Len()
	if space <= 0 {
		return 0, ErrWouldBlock
	}
	n := v.Len()
	if n > space {
		n = space
	}
	c.sndBuf.Push(v.Take(n))
	var w waitq.List
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend(&w)
	}
	w.WakeAll(0)
	return n, nil
}
