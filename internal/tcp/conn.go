package tcp

import (
	"time"

	"hybrid/internal/iovec"
	"hybrid/internal/vclock"
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

// Conn is one TCP connection. All fields are guarded by the stack's lock;
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
	sndBuf iovec.Vec
	rtx    []rtxSeg

	// Congestion control: cwnd/ssthresh arithmetic lives in the
	// controller; loss detection and recovery sequencing live here.
	cc CongestionController

	// SACK (RFC 2018). sackOn (below) is set when both SYNs carried
	// FlagSACKOK; sacks is the receive-side record of out-of-order
	// ranges reported on every outgoing ACK.
	sacks sackRanges

	// Receive side. ooo is the reassembly map, allocated lazily on the
	// first out-of-order arrival and dropped when drained — an in-order
	// connection never pays for it.
	rcvBuf iovec.Vec
	ooo    map[uint32]iovec.Vec // seq -> payload, out-of-order

	// Parked user operations (one-shot wake callbacks). A wake empties a
	// list but keeps its storage for the next park.
	recvW, sendW, estW []func()

	// Timers: owned clock timers, each made at its first arm with its
	// callback bound once, so a re-arm allocates nothing. A deadline is
	// nonzero while its timer is armed; a callback that finds its deadline
	// cleared or not yet reached is a stale real-clock arm and does
	// nothing (on a virtual clock Stop and Reset are exact).
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

// State reports the connection state.
func (c *Conn) State() State {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.state
}

// Err reports the connection's terminal error, if any.
func (c *Conn) Err() error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.err
}

// LocalPort and RemoteAddr identify the connection.
func (c *Conn) LocalPort() uint16  { return c.key.localPort }
func (c *Conn) RemoteAddr() string { return c.key.remoteAddr }
func (c *Conn) RemotePort() uint16 { return c.key.remotePort }

// --- Segment transmission ---------------------------------------------------

// rcvWindowLocked is the receive window to advertise.
func (c *Conn) rcvWindowLocked() uint32 {
	used := c.rcvBuf.Len()
	if used >= bufSize {
		return 0
	}
	return uint32(bufSize - used)
}

// sendSegLocked builds and transmits a segment carrying flags and payload
// at sndNxt, advancing sndNxt and recording it for retransmission when
// track is set. ACK and the current window ride along on everything
// except the initial SYN.
func (c *Conn) sendSegLocked(flags Flags, payload iovec.Vec, track bool) {
	seg := Segment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     c.sndNxt,
		Flags:   flags,
		Window:  c.rcvWindowLocked(),
		Payload: payload,
	}
	// Everything after the first SYN acknowledges. (The first SYN may
	// carry FlagSACKOK, so test for "bare SYN" by flag content, not
	// equality.)
	if flags&FlagSYN == 0 || flags&FlagACK != 0 {
		seg.Flags |= FlagACK
		seg.Ack = c.rcvNxt
	}
	if c.sackOn && seg.Flags&FlagACK != 0 {
		seg.Sack = c.sacks.blks // encoded before anything can change it
	}
	if track {
		c.rtx = append(c.rtx, rtxSeg{seq: c.sndNxt, flags: flags, payload: payload})
		c.sndNxt += seg.seqLen()
		// RTT sampling: time the newest tracked segment if no sample is
		// in flight.
		if !c.rttPending {
			c.rttPending = true
			c.rttSeq = c.sndNxt
			c.rttStart = c.s.clock.Now()
		}
		c.armRTOLocked()
	}
	c.lastWndAdvertised = seg.Window
	c.s.stats.SegsOut.Add(1)
	c.s.stats.BytesOut.Add(uint64(payload.Len()))
	c.s.traceLocked(&seg, c.cc.Cwnd(), false)
	c.s.sendSeg(c.key.remoteAddr, &seg)
}

// sendAckLocked emits a bare ACK with the current window.
func (c *Conn) sendAckLocked() {
	c.sendSegLocked(FlagACK, iovec.Vec{}, false)
}

// flightLocked is the amount of unacknowledged sequence space.
func (c *Conn) flightLocked() uint32 { return c.sndNxt - c.sndUna }

// recoveryEnabled reports whether this connection runs the RFC 6582/6675
// recovery machine (as opposed to the legacy retransmit-and-halve one).
// SACK implies it even when the peer did not grant SACK — the connection
// then degrades to NewReno.
func (c *Conn) recoveryEnabled() bool { return c.s.cfg.SACK || c.s.cfg.NewReno }

// markSackedLocked folds a received SACK option into the scoreboard:
// every tracked segment wholly inside a reported block is marked received.
func (c *Conn) markSackedLocked(blocks []SackBlock) {
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

// sackedBytesLocked is the sequence space the scoreboard knows has left
// the network. Zero on non-SACK connections (no marks ever set).
func (c *Conn) sackedBytesLocked() uint32 {
	var n uint32
	for i := range c.rtx {
		if c.rtx[i].sacked {
			n += c.rtx[i].seqEnd() - c.rtx[i].seq
		}
	}
	return n
}

// clearScoreboardLocked forgets all SACK and per-episode marks.
func (c *Conn) clearScoreboardLocked() {
	for i := range c.rtx {
		c.rtx[i].sacked = false
		c.rtx[i].rexInRec = false
	}
}

// sackRexmitLocked is the scoreboard-driven retransmission pump (RFC 6675
// NextSeg, simplified): while the pipe — flight minus SACKed space — has
// room under cwnd, retransmit the earliest hole not yet retransmitted this
// episode. Holes are segments below `recover` that the scoreboard has not
// marked; segments above `recover` were sent after the episode began and
// are the RTO's problem if they too are lost.
func (c *Conn) sackRexmitLocked() {
	cwnd := c.cc.Cwnd()
	pipe := c.flightLocked() - c.sackedBytesLocked()
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
		r.retransmitted = true
		c.rttPending = false
		c.s.stats.RecoveryRexmits.Add(1)
		c.resendLocked(r)
		pipe += size
	}
}

// trySendLocked pumps queued user data (and a queued FIN) into segments,
// respecting min(cwnd, peer window), and gathers user wakeups into w.
func (c *Conn) trySendLocked(w *wakeSet) {
	const mss = uint32(MSS)
	for !c.sndBuf.Empty() {
		wnd := c.cc.Cwnd()
		if c.sndWnd < wnd {
			wnd = c.sndWnd
		}
		flight := c.flightLocked()
		// Pipe accounting (RFC 6675): SACKed sequence space has left the
		// network, so it does not count against the window. Zero for
		// non-SACK connections.
		outstanding := flight - c.sackedBytesLocked()
		if outstanding >= wnd {
			if c.sndWnd == 0 && flight == 0 {
				c.armPersistLocked()
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
		payload := c.sndBuf.Take(int(n))
		c.sndBuf = c.sndBuf.Drop(int(n))
		c.sendSegLocked(FlagACK, payload, true)
	}
	// FIN goes out once the send queue is empty.
	if c.finQueued && !c.finSent && c.sndBuf.Empty() &&
		(c.state == StateEstablished || c.state == StateCloseWait) {
		c.finSent = true
		c.finSeq = c.sndNxt
		c.sendSegLocked(FlagFIN, iovec.Vec{}, true)
		if c.state == StateEstablished {
			c.state = StateFinWait1
		} else {
			c.state = StateLastAck
		}
	}
	// Space opened for blocked writers?
	if c.sndBuf.Len() < bufSize {
		w.take(&c.sendW)
	}
}

// --- Timers ------------------------------------------------------------------

// armLocked arms *t to fire d from now and records the deadline in *at.
// A nil *t is made here, bound to fire(c); fire is a method expression so
// that a re-arm does not build a method value.
func (c *Conn) armLocked(t **vclock.Timer, at *vclock.Time, d time.Duration, fire func(*Conn)) {
	if *t == nil {
		*t = c.s.clock.NewTimer(func() { fire(c) })
	}
	*at = c.s.clock.Now() + vclock.Time(d)
	(*t).Reset(d)
}

// disarmLocked stops t if its deadline *at is armed, and clears it.
func disarmLocked(t *vclock.Timer, at *vclock.Time) {
	if *at != 0 {
		t.Stop()
		*at = 0
	}
}

// dueLocked reports whether a timer callback is live: the connection is
// open and the deadline *at is armed and reached. A live callback
// disarms the deadline.
func (c *Conn) dueLocked(at *vclock.Time) bool {
	if *at == 0 || c.s.clock.Now() < *at || c.state == StateClosed {
		return false
	}
	*at = 0
	return true
}

// armRTOLocked starts the retransmission timer if segments are in flight
// and it is not already running.
func (c *Conn) armRTOLocked() {
	if c.rtoAt != 0 || len(c.rtx) == 0 {
		return
	}
	c.armLocked(&c.rtoTimer, &c.rtoAt, c.rto, (*Conn).rtoFired)
}

// rtoFired is the retransmission timer's callback.
func (c *Conn) rtoFired() {
	var w wakeSet
	c.s.mu.Lock()
	if c.dueLocked(&c.rtoAt) {
		c.onRTOLocked(&w)
	}
	c.s.mu.Unlock()
	w.run()
}

// restartRTOLocked cancels and re-arms the retransmission timer.
func (c *Conn) restartRTOLocked() {
	c.cancelRTOLocked()
	c.armRTOLocked()
}

func (c *Conn) cancelRTOLocked() { disarmLocked(c.rtoTimer, &c.rtoAt) }

// onRTOLocked handles a retransmission timeout: exponential backoff,
// congestion response, and retransmission of the earliest unacked segment
// (the paper's worker_tcp_timer events land here).
func (c *Conn) onRTOLocked(w *wakeSet) {
	if len(c.rtx) == 0 {
		return
	}
	c.s.stats.RTOExpiries.Add(1)
	r := &c.rtx[0]
	if int(r.retries) >= c.s.cfg.MaxRetries {
		c.teardownLocked(ErrTimeout, w)
		return
	}
	r.retries++
	r.retransmitted = true
	c.rttPending = false // Karn: no sample across a retransmission
	c.s.stats.Retransmits.Add(1)
	// Reneging safety (RFC 2018 §8): on timeout, forget everything the
	// scoreboard learned and abandon any open recovery episode — the
	// retransmission below must not be suppressed by stale SACK marks.
	c.clearScoreboardLocked()
	c.inRecovery = false
	// RFC 5681 congestion response to loss.
	c.cc.OnRTO(c.flightLocked())
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	c.resendLocked(r)
	c.armRTOLocked()
}

// resendLocked retransmits one recorded segment.
func (c *Conn) resendLocked(r *rtxSeg) {
	seg := Segment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     r.seq,
		Flags:   r.flags,
		Window:  c.rcvWindowLocked(),
		Payload: r.payload,
	}
	if r.flags&FlagSYN == 0 || r.flags&FlagACK != 0 {
		seg.Flags |= FlagACK
		seg.Ack = c.rcvNxt
	}
	if c.sackOn && seg.Flags&FlagACK != 0 {
		seg.Sack = c.sacks.blks
	}
	c.s.stats.SegsOut.Add(1)
	c.s.traceLocked(&seg, c.cc.Cwnd(), true)
	c.s.sendSeg(c.key.remoteAddr, &seg)
}

// armPersistLocked schedules a zero-window probe.
func (c *Conn) armPersistLocked() {
	if c.persistAt != 0 {
		return
	}
	c.armLocked(&c.persistTimer, &c.persistAt, c.rto, (*Conn).persistFired)
}

// persistFired is the persist timer's callback.
func (c *Conn) persistFired() {
	var w wakeSet
	c.s.mu.Lock()
	if c.dueLocked(&c.persistAt) {
		if c.sndWnd == 0 && !c.sndBuf.Empty() && c.flightLocked() == 0 {
			// Probe with one byte beyond the window; the receiver's
			// buffer is elastic enough to absorb and acknowledge it.
			c.s.stats.ZeroWindowProbes.Add(1)
			payload := c.sndBuf.Take(1)
			c.sndBuf = c.sndBuf.Drop(1)
			c.sendSegLocked(FlagACK, payload, true)
		} else {
			c.trySendLocked(&w)
		}
	}
	c.s.mu.Unlock()
	w.run()
}

func (c *Conn) cancelPersistLocked() { disarmLocked(c.persistTimer, &c.persistAt) }

// enterTimeWaitLocked starts the 2*MSL timer and transitions. The state
// is the timer's guard: nothing leaves TIME_WAIT but the timer, or a
// teardown that stops it.
func (c *Conn) enterTimeWaitLocked() {
	c.state = StateTimeWait
	c.cancelRTOLocked()
	if c.twTimer == nil {
		c.twTimer = c.s.clock.NewTimer(c.timeWaitFired)
	}
	c.twTimer.Reset(2 * msl)
}

// timeWaitFired is the TIME_WAIT timer's callback.
func (c *Conn) timeWaitFired() {
	c.s.mu.Lock()
	if c.state == StateTimeWait {
		c.state = StateClosed
		c.s.removeConnLocked(c)
	}
	c.s.mu.Unlock()
}

// teardownLocked aborts the connection with err and gathers every parked
// operation's wakeup into w.
func (c *Conn) teardownLocked(err error, w *wakeSet) {
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
	c.cancelRTOLocked()
	c.cancelPersistLocked()
	c.twTimer.Stop()
	c.s.removeConnLocked(c)
	w.take(&c.recvW)
	w.take(&c.sendW)
	w.take(&c.estW)
}

// --- Input processing ---------------------------------------------------------

// processLocked runs the state machine on one inbound segment, gathering
// into w the user wakeups to run after the lock is released.
func (c *Conn) processLocked(seg *Segment, w *wakeSet) {
	if seg.Flags&FlagRST != 0 {
		err := ErrConnReset
		if c.state == StateSynSent {
			err = ErrRefused
		}
		c.s.stats.RSTsIn.Add(1)
		c.teardownLocked(err, w)
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK {
			if seg.Ack != c.iss+1 {
				return // stale; a real stack would RST
			}
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			// SACK is on only when we asked on our SYN (cfg.SACK) and the
			// peer granted it on the SYN-ACK (RFC 2018 §2).
			c.sackOn = c.s.cfg.SACK && seg.Flags&FlagSACKOK != 0
			c.state = StateEstablished
			c.acceptAckLocked(seg, w)
			c.sendAckLocked()
			w.take(&c.estW)
		}
		return

	case StateSynRcvd:
		if seg.Flags&FlagSYN != 0 && seg.Seq+1 == c.rcvNxt {
			// Retransmitted SYN: our SYN-ACK was lost; resend via rtx.
			if len(c.rtx) > 0 {
				c.resendLocked(&c.rtx[0])
			}
			return
		}
		if seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.state = StateEstablished
			if c.listener != nil {
				c.listener.pending--
				c.listener.deliverLocked(c, w)
			}
			w.take(&c.estW)
			c.acceptAckLocked(seg, w)
			// Data may ride on the handshake ACK.
			c.processDataLocked(seg, w)
		}
		return

	case StateClosed:
		return
	}

	// A retransmitted SYN or SYN-ACK means the peer never saw our
	// handshake ACK; re-acknowledge so it can leave SYN_RCVD (RFC 793's
	// response to an old duplicate SYN).
	if seg.Flags&FlagSYN != 0 && seqLT(seg.Seq, c.rcvNxt) {
		c.sendAckLocked()
		return
	}
	// Established and closing states: ACK processing first, then data.
	if seg.Flags&FlagACK != 0 {
		c.acceptAckLocked(seg, w)
	}
	c.processDataLocked(seg, w)
}

// acceptAckLocked handles the ACK and window fields.
func (c *Conn) acceptAckLocked(seg *Segment, w *wakeSet) {
	ack := seg.Ack
	// SACK blocks may ride on any ACK (duplicate or advancing): fold them
	// into the scoreboard before acting on the cumulative field.
	if c.sackOn && len(seg.Sack) > 0 {
		c.markSackedLocked(seg.Sack)
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
				c.updateRTTLocked(time.Duration(c.s.clock.Now() - c.rttStart))
			}
		}
		// Congestion response. Inside a recovery episode an advancing ACK
		// is either partial (the next hole is still missing: retransmit it
		// now, deflate) or full (past `recover`: the episode ends); outside
		// one — always, for the legacy machine — the window grows.
		if c.inRecovery && seqLT(ack, c.recover) {
			if c.sackOn {
				c.sackRexmitLocked()
			} else if len(c.rtx) > 0 {
				r := &c.rtx[0]
				r.retransmitted = true
				c.rttPending = false
				c.s.stats.RecoveryRexmits.Add(1)
				c.resendLocked(r)
			}
			c.cc.OnPartialAck(acked)
		} else {
			if c.inRecovery {
				c.inRecovery = false
				c.clearScoreboardLocked()
				c.cc.OnExitRecovery(c.s.clock.Now())
			} else {
				c.cc.OnAck(acked, c.srtt, c.s.clock.Now())
			}
			c.dupAcks = 0
		}
		if len(c.rtx) == 0 {
			c.cancelRTOLocked()
		} else {
			c.restartRTOLocked()
		}
		// FIN acknowledged?
		if c.finSent && seqGT(ack, c.finSeq) {
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
			case StateClosing:
				c.enterTimeWaitLocked()
			case StateLastAck:
				c.state = StateClosed
				c.s.removeConnLocked(c)
				w.take(&c.recvW)
				w.take(&c.sendW)
			}
		}
	case ack == c.sndUna && seg.Payload.Empty() && c.flightLocked() > 0:
		// Duplicate ACK (RFC 5681 fast retransmit).
		c.s.stats.DupAcksIn.Add(1)
		c.dupAcks++
		switch {
		case !c.recoveryEnabled():
			// Legacy machine: retransmit-and-halve at the third dupack,
			// no recovery episode (every subsequent advancing ACK grows
			// the window again).
			if c.dupAcks == 3 && len(c.rtx) > 0 {
				c.s.stats.FastRetransmits.Add(1)
				c.cc.OnEnterRecovery(c.flightLocked(), c.s.clock.Now())
				c.rtx[0].retransmitted = true
				c.rttPending = false
				c.resendLocked(&c.rtx[0])
			}
		case c.inRecovery:
			// Further dupacks during recovery: with SACK they carry fresh
			// scoreboard marks (folded in above), which may open pipe for
			// the next hole.
			if c.sackOn {
				c.sackRexmitLocked()
			}
		case c.dupAcks == 3 && len(c.rtx) > 0:
			// Enter recovery (RFC 6582/6675): remember where the flight
			// ends so a full ACK can close the episode, cut the window,
			// retransmit the first hole, and with SACK fill whatever pipe
			// remains.
			c.s.stats.FastRetransmits.Add(1)
			c.s.stats.FastRecoveries.Add(1)
			c.inRecovery = true
			c.recover = c.sndNxt
			c.cc.OnEnterRecovery(c.flightLocked(), c.s.clock.Now())
			r := &c.rtx[0]
			r.retransmitted = true
			r.rexInRec = true
			c.rttPending = false
			c.resendLocked(r)
			if c.sackOn {
				c.sackRexmitLocked()
			}
		}
	}
	// Window update, from current ACKs only (a reordered old segment must
	// not shrink the window).
	if seqGEQ(seg.Ack, c.sndUna) {
		c.sndWnd = seg.Window
		if c.sndWnd > 0 {
			c.cancelPersistLocked()
		}
	}
	c.trySendLocked(w)
}

// updateRTTLocked folds one RTT measurement into SRTT/RTTVAR (RFC 6298).
func (c *Conn) updateRTTLocked(sample time.Duration) {
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

// processDataLocked handles payload bytes and FIN sequencing.
func (c *Conn) processDataLocked(seg *Segment, w *wakeSet) {
	hasFin := seg.Flags&FlagFIN != 0
	payload := seg.Payload
	seq := seg.Seq

	if payload.Empty() && !hasFin {
		return
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
		c.rcvBuf = c.rcvBuf.Concat(payload)
		c.rcvNxt += uint32(payload.Len())
		progressed = true
		c.drainOOOLocked()
	case !payload.Empty() && seqGT(seq, c.rcvNxt):
		c.s.stats.OutOfOrderIn.Add(1)
		if len(c.ooo) < 1024 {
			if _, dup := c.ooo[seq]; !dup {
				if c.ooo == nil {
					c.ooo = make(map[uint32]iovec.Vec)
				}
				c.ooo[seq] = payload
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
			c.onPeerFinLocked()
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
		w.take(&c.recvW)
	}
	// Acknowledge at once any segment that carried sequence space: an
	// out-of-order arrival's ACK is the dup-ack the sender's fast
	// retransmit needs.
	if c.state != StateClosed {
		c.sendAckLocked()
	}
}

// drainOOOLocked moves now-in-order segments from the reassembly queue,
// then applies a deferred FIN if it lines up.
func (c *Conn) drainOOOLocked() {
	for {
		p, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		c.rcvBuf = c.rcvBuf.Concat(p)
		c.rcvNxt += uint32(p.Len())
	}
	if len(c.ooo) == 0 {
		// Drop the drained reassembly map; the next loss re-allocates it.
		c.ooo = nil
	}
	if c.oooFin && c.oooFinSeq == c.rcvNxt && !c.finRcvd {
		c.rcvNxt++
		c.finRcvd = true
		c.oooFin = false
		c.onPeerFinLocked()
	}
}

// onPeerFinLocked applies the state transition for a received FIN.
func (c *Conn) onPeerFinLocked() {
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		if c.finSent && seqGT(c.sndUna, c.finSeq) {
			c.enterTimeWaitLocked()
		} else {
			c.state = StateClosing
		}
	case StateFinWait2:
		c.enterTimeWaitLocked()
	}
}

// --- User operations (nonblocking core + ready hooks) -------------------------

// TryRead copies buffered stream data into p. It returns ErrWouldBlock
// when no data is available yet, (0, nil) at end of stream, and the
// connection's error after an abort.
func (c *Conn) TryRead(p []byte) (int, error) {
	defer c.s.enter()()
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
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
	// Window update: if the advertised window was (near) zero and has
	// reopened, tell the peer.
	if c.lastWndAdvertised < MSS &&
		c.rcvWindowLocked() >= MSS &&
		c.state != StateClosed {
		c.sendAckLocked()
	}
	return n, nil
}

// OnRecvReady registers a one-shot callback for when TryRead may make
// progress (data, EOF, or error).
func (c *Conn) OnRecvReady(cb func()) {
	c.s.mu.Lock()
	if !c.rcvBuf.Empty() || c.finRcvd || c.err != nil || c.state == StateClosed {
		c.s.mu.Unlock()
		cb()
		return
	}
	c.recvW = append(c.recvW, cb)
	c.s.mu.Unlock()
}

// TryWrite queues stream data for transmission, returning how much was
// accepted. It returns ErrWouldBlock when the send buffer is full.
func (c *Conn) TryWrite(p []byte) (int, error) {
	defer c.s.enter()()
	c.s.mu.Lock()
	if c.err != nil {
		err := c.err
		c.s.mu.Unlock()
		return 0, err
	}
	if c.finQueued || c.finSent {
		c.s.mu.Unlock()
		return 0, ErrClosed
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		c.s.mu.Unlock()
		return 0, ErrClosed
	}
	space := bufSize - c.sndBuf.Len()
	if space <= 0 {
		c.s.mu.Unlock()
		return 0, ErrWouldBlock
	}
	n := len(p)
	if n > space {
		n = space
	}
	// The one user-boundary copy: the caller may reuse p immediately.
	// TryWriteV transfers ownership instead and skips even this copy.
	cp := make([]byte, n)
	copy(cp, p[:n])
	c.sndBuf = c.sndBuf.Append(cp)
	var w wakeSet
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySendLocked(&w)
	}
	c.s.mu.Unlock()
	w.run()
	return n, nil
}

// OnSendReady registers a one-shot callback for when TryWrite may accept
// data again.
func (c *Conn) OnSendReady(cb func()) {
	c.s.mu.Lock()
	if c.sndBuf.Len() < bufSize || c.err != nil || c.state == StateClosed {
		c.s.mu.Unlock()
		cb()
		return
	}
	c.sendW = append(c.sendW, cb)
	c.s.mu.Unlock()
}

// OnEstablished registers a one-shot callback for when the connection
// leaves SYN_SENT/SYN_RCVD (established or failed).
func (c *Conn) OnEstablished(cb func()) {
	c.s.mu.Lock()
	if c.state != StateSynSent && c.state != StateSynRcvd {
		c.s.mu.Unlock()
		cb()
		return
	}
	c.estW = append(c.estW, cb)
	c.s.mu.Unlock()
}

// Close closes the send direction: queued data is delivered, then a FIN.
// Reads continue to drain data already received and end at the peer's
// FIN. Close is idempotent.
func (c *Conn) Close() {
	defer c.s.enter()()
	c.s.mu.Lock()
	if c.err != nil || c.finQueued || c.state == StateClosed {
		c.s.mu.Unlock()
		return
	}
	c.finQueued = true
	var w wakeSet
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySendLocked(&w)
	}
	c.s.mu.Unlock()
	w.run()
}

// Abort sends an RST and tears the connection down immediately.
func (c *Conn) Abort() {
	defer c.s.enter()()
	c.s.mu.Lock()
	if c.state == StateClosed {
		c.s.mu.Unlock()
		return
	}
	rst := Segment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagRST | FlagACK,
	}
	c.s.stats.RSTsOut.Add(1)
	c.s.traceLocked(&rst, c.cc.Cwnd(), false)
	c.s.sendSeg(c.key.remoteAddr, &rst)
	var w wakeSet
	c.teardownLocked(ErrClosed, &w)
	c.s.mu.Unlock()
	w.run()
}

// TryWriteV queues an I/O vector for transmission without copying: the
// stack takes ownership of the vector's storage, which must not be
// mutated afterwards. Like TryWrite it may accept a prefix, reporting how
// many bytes were taken, and returns ErrWouldBlock when the send buffer
// is full. This is the zero-copy entry point of §5.2.
func (c *Conn) TryWriteV(v iovec.Vec) (int, error) {
	defer c.s.enter()()
	c.s.mu.Lock()
	if c.err != nil {
		err := c.err
		c.s.mu.Unlock()
		return 0, err
	}
	if c.finQueued || c.finSent {
		c.s.mu.Unlock()
		return 0, ErrClosed
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		c.s.mu.Unlock()
		return 0, ErrClosed
	}
	space := bufSize - c.sndBuf.Len()
	if space <= 0 {
		c.s.mu.Unlock()
		return 0, ErrWouldBlock
	}
	n := v.Len()
	if n > space {
		n = space
	}
	c.sndBuf = c.sndBuf.Concat(v.Take(n))
	var w wakeSet
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySendLocked(&w)
	}
	c.s.mu.Unlock()
	w.run()
	return n, nil
}
