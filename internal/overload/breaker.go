package overload

import (
	"errors"
	"sync"

	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// ErrOpen is returned (or thrown monadically by callers) when the breaker
// sheds a request instead of admitting it to the guarded path.
var ErrOpen = errors.New("overload: circuit open")

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState int32

const (
	// Closed: requests flow; failures are counted.
	Closed BreakerState = iota
	// Open: requests are shed immediately until the cooldown elapses.
	Open
	// HalfOpen: one probe request at a time tests whether the guarded
	// path has recovered.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "invalid"
}

// BreakerConfig tunes the trip and recovery behaviour. The zero value is
// completed by NewBreaker with conservative defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays Open before probing
	// (default 100ms).
	Cooldown vclock.Duration
	// ProbeSuccesses is how many consecutive successful probes close the
	// breaker again (default 1).
	ProbeSuccesses int
}

// Breaker is a circuit breaker for one guarded request path. All state
// transitions read the clock through vclock, so a breaker driven from a
// virtual-time benchmark trips and recovers deterministically.
type Breaker struct {
	clk vclock.Clock
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int         // consecutive failures while Closed
	openedAt vclock.Time // when the breaker last tripped
	probing  bool        // a HalfOpen probe is in flight
	probeOK  int         // consecutive successful probes

	reg    *stats.Registry
	trips  *stats.Counter
	sheds  *stats.Counter
	probes *stats.Counter
	closes *stats.Counter
}

// NewBreaker creates a breaker in the given timing domain, filling in
// defaults for zero config fields. A nil clock uses real time.
func NewBreaker(clk vclock.Clock, cfg BreakerConfig) *Breaker {
	if clk == nil {
		clk = vclock.NewReal()
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 100 * vclock.Duration(1e6)
	}
	if cfg.ProbeSuccesses <= 0 {
		cfg.ProbeSuccesses = 1
	}
	b := &Breaker{clk: clk, cfg: cfg, reg: stats.NewRegistry()}
	b.trips = b.reg.Counter("breaker_trips")
	b.sheds = b.reg.Counter("breaker_sheds")
	b.probes = b.reg.Counter("breaker_probes")
	b.closes = b.reg.Counter("breaker_closes")
	b.reg.GaugeFunc("breaker_state", func() int64 { return int64(b.State()) })
	return b
}

// Metrics exposes the breaker's registry (breaker_trips, breaker_sheds,
// breaker_probes, breaker_closes, breaker_state).
func (b *Breaker) Metrics() *stats.Registry { return b.reg }

// State reports the current state, promoting Open to HalfOpen when the
// cooldown has elapsed (the promotion itself happens in Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && vclock.Duration(b.clk.Now()-b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}

// Allow decides the fate of one request. admit=false means shed now
// (callers respond with a cheap error and never touch the guarded path).
// probe=true marks the request as a half-open probe: its Observe decides
// whether the breaker closes or re-opens. Every admitted request must
// call Observe exactly once.
func (b *Breaker) Allow() (admit, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if vclock.Duration(b.clk.Now()-b.openedAt) < b.cfg.Cooldown {
			b.sheds.Inc()
			return false, false
		}
		b.state = HalfOpen
		b.probeOK = 0
		fallthrough
	case HalfOpen:
		if b.probing {
			b.sheds.Inc()
			return false, false
		}
		b.probing = true
		b.probes.Inc()
		return true, true
	}
	panic("overload: invalid breaker state")
}

// Observe records the outcome of an admitted request: a non-nil err is a
// failure.
func (b *Breaker) Observe(err error) {
	failed := err != nil
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if !failed {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		if failed {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.ProbeSuccesses {
			b.state = Closed
			b.fails = 0
			b.probeOK = 0
			b.closes.Inc()
		}
	case Open:
		// A straggler from before the trip; it already counted.
	}
}

// trip moves to Open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.clk.Now()
	b.fails = 0
	b.probing = false
	b.probeOK = 0
	b.trips.Inc()
}
