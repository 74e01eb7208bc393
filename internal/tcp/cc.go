package tcp

import (
	"math"
	"time"

	"hybrid/internal/vclock"
)

// CongestionController is the pluggable congestion-control policy behind a
// connection's send window. The connection owns all loss *detection* —
// duplicate-ACK counting, the SACK scoreboard, the retransmission timer —
// and tells the controller what happened; the controller owns only the
// cwnd/ssthresh arithmetic. All methods run on the stack's one owner.
//
// The contract mirrors the legacy inline code exactly, so the "reno"
// implementation driven from the same call sites is byte-for-byte
// indistinguishable from the pre-extraction stack:
//
//   - OnAck fires for every ACK that advances sndUna while the connection
//     is not in recovery (the legacy stack had no recovery state, so for
//     it that means every advancing ACK).
//   - OnEnterRecovery fires at the third duplicate ACK, before the fast
//     retransmit, with the flight size at that moment.
//   - OnPartialAck and OnExitRecovery fire only on the NewReno/SACK
//     recovery path (never for a legacy-configured connection).
//   - OnRTO fires on every retransmission-timer expiry with the flight
//     size at that moment.
type CongestionController interface {
	// Cwnd is the current congestion window in bytes.
	Cwnd() uint32
	// OnAck processes an ACK that advanced sndUna by acked bytes, outside
	// recovery: grow the window (slow start below ssthresh, the
	// algorithm's avoidance law above it). srtt is the connection's
	// smoothed RTT estimate (RFC 6298), or 0 before the first sample;
	// time-based laws (CUBIC's TCP-friendly region) need it, Reno
	// ignores it.
	OnAck(acked uint32, srtt time.Duration, now vclock.Time)
	// OnEnterRecovery responds to loss detected by duplicate ACKs, with
	// flight bytes outstanding: cut ssthresh and set cwnd for the
	// recovery episode.
	OnEnterRecovery(flight uint32, now vclock.Time)
	// OnPartialAck processes an ACK that advanced sndUna by acked bytes
	// but left the recovery episode open (RFC 6582): deflate the window
	// so retransmissions drain the queue without a burst.
	OnPartialAck(acked uint32)
	// OnExitRecovery ends a recovery episode: settle cwnd for the
	// post-recovery steady state.
	OnExitRecovery(now vclock.Time)
	// OnRTO responds to a retransmission timeout with flight bytes
	// outstanding: collapse to one segment and restart discovery.
	OnRTO(flight uint32)
}

// newController builds the configured controller. Names are validated in
// NewStack, so the default arm is unreachable from user code.
func newController(name string, mss, initialCwnd uint32) CongestionController {
	switch name {
	case "", "reno":
		return &renoCC{mss: mss, cwnd: initialCwnd, ssthresh: 1 << 30}
	case "cubic":
		return &cubicCC{mss: mss, cwnd: initialCwnd, ssthresh: 1 << 30}
	}
	panic("tcp: unknown congestion controller " + name)
}

// --- Reno (RFC 5681) ---------------------------------------------------------

// renoCC is standard AIMD: slow start below ssthresh, one MSS per cwnd of
// ACKs above it, multiplicative decrease on loss. The arithmetic is the
// pre-extraction inline code verbatim — integer division and all — because
// the legacy goldens pin it.
type renoCC struct {
	mss, cwnd, ssthresh uint32
}

func (r *renoCC) Cwnd() uint32 { return r.cwnd }

func (r *renoCC) OnAck(acked uint32, _ time.Duration, _ vclock.Time) {
	if r.cwnd < r.ssthresh {
		r.cwnd += r.mss // slow start
	} else if r.cwnd > 0 {
		r.cwnd += r.mss * r.mss / r.cwnd // congestion avoidance
		if r.cwnd < r.mss {
			r.cwnd = r.mss
		}
	}
}

// halfFlight is RFC 5681's multiplicative decrease: half the flight,
// floored at two segments.
func (r *renoCC) halfFlight(flight uint32) uint32 {
	half := flight / 2
	if half < 2*r.mss {
		half = 2 * r.mss
	}
	return half
}

func (r *renoCC) OnEnterRecovery(flight uint32, _ vclock.Time) {
	r.ssthresh = r.halfFlight(flight)
	r.cwnd = r.ssthresh
}

func (r *renoCC) OnPartialAck(acked uint32) {
	// RFC 6582 deflation: take out what the partial ACK drained, put one
	// MSS back so the next hole's retransmission fits.
	if acked >= r.cwnd {
		r.cwnd = 0
	} else {
		r.cwnd -= acked
	}
	r.cwnd += r.mss
	if r.cwnd < r.mss {
		r.cwnd = r.mss
	}
}

func (r *renoCC) OnExitRecovery(_ vclock.Time) { r.cwnd = r.ssthresh }

func (r *renoCC) OnRTO(flight uint32) {
	r.ssthresh = r.halfFlight(flight)
	r.cwnd = r.mss
}

// --- CUBIC (RFC 8312) --------------------------------------------------------

const (
	cubicBeta = 0.7 // multiplicative decrease factor
	cubicC    = 0.4 // scaling constant of the cubic growth function
)

// cubicCC grows the window as W(t) = C·(t−K)³ + Wmax, t counted in real
// (here: virtual) seconds since the recovery that set Wmax — concave up to
// the old maximum, convex probing beyond it — which makes growth depend on
// time between losses rather than RTT. Windows in the growth law are in
// MSS units (as in the RFC); cwnd itself stays in bytes.
//
// The TCP-friendly region (RFC 8312 §4.2) estimates the window a Reno
// flow would have reached since the epoch started — W_est grows by
// 3(1−β)/(1+β) MSS per SRTT — and never lets the cubic law undershoot
// it, which is what keeps CUBIC competitive on the short, low-BDP paths
// where the cubic term alone is nearly flat. In the flat region with no
// RTT sample yet the window creeps by MSS/100 per ACK so it still
// probes. All arithmetic is float64, which Go evaluates identically on
// every platform, so traces stay byte-reproducible.
type cubicCC struct {
	mss, cwnd, ssthresh uint32
	wMax                float64 // window before the last decrease, MSS units
	wLastMax            float64 // for fast convergence (RFC 8312 §4.6)
	k                   float64 // seconds until W(t) regains wMax
	wEst                float64 // Reno-equivalent window estimate, MSS units
	frac                float64 // sub-MSS growth credit, bytes (see grow)
	epoch               vclock.Time
	hasEpoch            bool
}

// grow credits b bytes of window growth but only moves cwnd in whole-MSS
// steps, banking the remainder. The cubic and W_est laws hand out a few
// bytes per ACK; applying them directly would open the send window in
// slivers and shatter the stream into tiny segments (the sender transmits
// whatever the window allows). Real implementations keep cwnd integral in
// segments for exactly this reason (Linux's snd_cwnd_cnt).
func (c *cubicCC) grow(b float64) {
	c.frac += b
	for c.frac >= float64(c.mss) {
		c.cwnd += c.mss
		c.frac -= float64(c.mss)
	}
}

func (c *cubicCC) Cwnd() uint32 { return c.cwnd }

func (c *cubicCC) OnAck(acked uint32, srtt time.Duration, now vclock.Time) {
	if c.cwnd < c.ssthresh {
		c.cwnd += c.mss // slow start, same as Reno
		return
	}
	mss := float64(c.mss)
	w := float64(c.cwnd) / mss
	if !c.hasEpoch {
		// First congestion-avoidance ACK since the last loss (or ever):
		// start the cubic epoch here.
		c.hasEpoch = true
		c.epoch = now
		c.wEst = w
		c.frac = 0
		if c.wMax < w {
			c.wMax = w // no decrease yet: probe convexly from the current window
		}
		c.k = math.Cbrt((c.wMax - w) / cubicC)
	}
	t := float64(now-c.epoch) / float64(1e9)
	rtt := float64(srtt) / float64(1e9)
	// W_cubic one RTT ahead (RFC 8312 §4.1): the per-ACK increment aims
	// at where the cubic wants to be after this round trip, not where it
	// is now. Before the first RTT sample rtt is 0 and this degrades to
	// the instantaneous cubic.
	ta := t + rtt
	target := cubicC*(ta-c.k)*(ta-c.k)*(ta-c.k) + c.wMax
	if limit := 1.5 * w; target > limit {
		target = limit // clamp the per-RTT burst (RFC 8312 §4.1's 1.5x rule)
	}
	// TCP-friendly region (RFC 8312 §4.2 as amended by RFC 9438 §4.3):
	// W_est tracks the window an AIMD flow with CUBIC's β would have
	// built since the epoch — α = 3(1−β)/(1+β) MSS per window of ACKs
	// while below W_max (the gentler cut pays for the slower climb), then
	// 1 MSS per window, plain Reno avoidance, once the old maximum is
	// regained. The update is incremental per ACK, like Reno's own law,
	// so it needs no RTT sample and — unlike the closed-form
	// W_est(t) = W + α·t/RTT — cannot retroactively shrink when queueing
	// inflates SRTT mid-epoch. While the cubic law sits below the
	// estimate, run at the estimate.
	alpha := 1.0
	if c.wEst < c.wMax {
		alpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
	}
	c.wEst += alpha * float64(acked) / float64(c.cwnd)
	wCur := cubicC*(t-c.k)*(t-c.k)*(t-c.k) + c.wMax
	if wCur < c.wEst {
		if t := c.wEst * mss; t > float64(c.cwnd)+c.frac {
			c.grow(t - float64(c.cwnd) - c.frac)
		} else {
			c.grow(float64(c.mss/100 + 1))
		}
		return
	}
	if target > w {
		c.grow((target - w) / w * mss)
	} else {
		c.grow(float64(c.mss/100 + 1)) // flat region near wMax: keep probing slowly
	}
}

// decrease applies the multiplicative cut and fast convergence, shared by
// the dupack and RTO paths. The cut is taken from the bytes actually in
// flight, not from cwnd. RFC 8312 writes it as cwnd·β because cwnd tracks
// flight in steady state, but here the two diverge in both directions:
// right after an RTO cwnd sits at one MSS under a still-full pipe
// (cutting from it would stall retransmissions into serial timeouts), and
// on a receiver-limited flow the cubic law balloons cwnd far past the
// usable window (cutting from it would open a recovery window several
// times the pipe and dump a queue-filling burst). Flight is the flow's
// true operating point either way — the same rule Reno's half-flight cut
// uses.
func (c *cubicCC) decrease(flight uint32) uint32 {
	base := flight
	w := float64(base) / float64(c.mss)
	if w < c.wLastMax {
		// Fast convergence: the window never regained its old peak, so
		// release capacity to newer flows by remembering less than we had.
		c.wLastMax = w
		c.wMax = w * (1 + cubicBeta) / 2
	} else {
		c.wLastMax = w
		c.wMax = w
	}
	c.hasEpoch = false
	c.frac = 0
	ss := uint32(float64(base) * cubicBeta)
	if ss < 2*c.mss {
		ss = 2 * c.mss
	}
	return ss
}

func (c *cubicCC) OnEnterRecovery(flight uint32, _ vclock.Time) {
	c.ssthresh = c.decrease(flight)
	// Conservative reduction during the episode itself (the spirit of RFC
	// 6937): the recovery window opens at half the flight — what the pipe
	// is known to sustain — rather than jumping straight to β·flight,
	// which would burst retransmissions and new data into an
	// already-dropping path. cwnd settles at ssthresh (= β·flight, the
	// CUBIC cut) when the episode exits.
	c.cwnd = flight / 2
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
}

func (c *cubicCC) OnPartialAck(acked uint32) {
	// Same deflation as NewReno: the cubic law resumes once recovery ends.
	if acked >= c.cwnd {
		c.cwnd = 0
	} else {
		c.cwnd -= acked
	}
	c.cwnd += c.mss
	if c.cwnd < c.mss {
		c.cwnd = c.mss
	}
}

func (c *cubicCC) OnExitRecovery(_ vclock.Time) { c.cwnd = c.ssthresh }

func (c *cubicCC) OnRTO(flight uint32) {
	c.ssthresh = c.decrease(flight)
	c.cwnd = c.mss
}
