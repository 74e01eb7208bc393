// Package faults is the deterministic fault-injection layer for the
// simulated OS. The paper's pitch for the hybrid model is that every OS
// interaction flows through one trace interpreter, so the runtime can
// absorb "as many scenarios as you can imagine" — but a simulation that
// only models the happy path never exercises the exception machinery
// (§3.3) or the server's robustness claims (§5.2). This package supplies
// the hostile scenarios: a seed-driven fault plan consulted by the
// simulated kernel (EINTR/EAGAIN/EIO, delayed epoll readiness), the disk
// model (transient and hard sector errors, latency spikes), the packet
// network (drop, duplication, reorder), and the TCP stack (segment loss,
// forged resets).
//
// Determinism is the design constraint: every decision is a pure function
// of (seed, operation class, per-class operation counter, virtual time)
// through a splitmix64-style mixer, so a given seed replays bit-for-bit
// on the virtual clock — a failing stress run is reproduced exactly by
// re-running with the printed seed. A nil *Injector is valid everywhere
// and injects nothing, so subsystems thread one pointer and pay a nil
// check on the happy path.
package faults

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// Op names one class of injectable operation. Rates and counters are kept
// per class, so a plan can make disk reads flaky while leaving the network
// alone.
type Op string

// The operation classes wired through the simulated OS.
const (
	// KernelRead/KernelWrite fail nonblocking reads and writes with
	// EINTR, EAGAIN, or EIO before the endpoint is touched.
	KernelRead  Op = "kernel.read"
	KernelWrite Op = "kernel.write"
	// KernelAccept fails accept with EINTR or ECONNABORTED (the
	// retryable accept errors a real server must absorb).
	KernelAccept Op = "kernel.accept"
	// EpollDelay postpones delivery of a readiness event by a drawn
	// duration instead of failing anything — late wakeups, not errors.
	EpollDelay Op = "epoll.delay"
	// DiskRead/DiskWrite fail one request with a transient I/O error.
	DiskRead  Op = "disk.read"
	DiskWrite Op = "disk.write"
	// DiskHard marks sectors permanently bad: the decision is a pure
	// function of the block number, so the same blocks fail on every
	// access (retries cannot help; the layer above must degrade).
	DiskHard Op = "disk.hard"
	// DiskLatency adds a service-time spike to one request (a remapped
	// sector, a recalibration) without failing it.
	DiskLatency Op = "disk.latency"
	// NetDrop/NetDup/NetReorder inject packet loss, duplication, and
	// extra per-packet delay on top of whatever the link model does.
	NetDrop    Op = "net.drop"
	NetDup     Op = "net.dup"
	NetReorder Op = "net.reorder"
	// TCPDrop discards an inbound segment before the state machine sees
	// it (corruption); TCPReset forges an RST onto an inbound segment,
	// aborting the connection mid-stream.
	TCPDrop  Op = "tcp.drop"
	TCPReset Op = "tcp.reset"
)

// AllOps lists every operation class the simulated OS consults, in the
// order they are registered and reported.
var AllOps = []Op{
	KernelRead, KernelWrite, KernelAccept, EpollDelay,
	DiskRead, DiskWrite, DiskHard, DiskLatency,
	NetDrop, NetDup, NetReorder,
	TCPDrop, TCPReset,
}

// Config is a fault plan: a seed plus per-class probabilities and
// one-shot triggers. The zero value injects nothing.
type Config struct {
	// Seed keys the PRNG. Two runs with the same Config and the same
	// virtual-time schedule make identical decisions.
	Seed uint64
	// Rate is the default probability applied to every class in AllOps
	// that has no entry in Rates.
	Rate float64
	// Rates overrides the probability per class (0 disables a class even
	// when Rate is set).
	Rates map[Op]float64
	// OneShots fires a class unconditionally at the listed operation
	// counts (1-based): {DiskRead: {3}} fails exactly the third disk
	// read. One-shots fire regardless of the class's rate.
	OneShots map[Op][]uint64
}

// Active reports whether the plan can inject anything at all. Callers use
// it to decide whether to enable recovery machinery (retries, deadlines)
// whose trace shape would otherwise perturb fault-free runs.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	if c.Rate > 0 || len(c.OneShots) > 0 {
		return true
	}
	for _, r := range c.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// ParseSpec parses the -faults flag grammar: a comma-separated list of
// "seed=N", "rate=R" (default probability for every class), "<op>=R"
// (per-class probability), and "oneshot:<op>=N" (fire at the Nth
// operation) entries. An empty spec or "off" returns nil (no faults).
func ParseSpec(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	cfg := &Config{Seed: 1}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q is not key=value", item)
		}
		switch {
		case key == "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed %q: %v", val, err)
			}
			cfg.Seed = n
		case key == "rate":
			r, err := parseRate(val)
			if err != nil {
				return nil, err
			}
			cfg.Rate = r
		case strings.HasPrefix(key, "oneshot:"):
			op := Op(strings.TrimPrefix(key, "oneshot:"))
			if !knownOp(op) {
				return nil, fmt.Errorf("faults: unknown op %q", op)
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faults: oneshot count %q must be a positive integer", val)
			}
			if cfg.OneShots == nil {
				cfg.OneShots = make(map[Op][]uint64)
			}
			cfg.OneShots[op] = append(cfg.OneShots[op], n)
		default:
			op := Op(key)
			if !knownOp(op) {
				return nil, fmt.Errorf("faults: unknown op %q (known: %v)", op, AllOps)
			}
			r, err := parseRate(val)
			if err != nil {
				return nil, err
			}
			if cfg.Rates == nil {
				cfg.Rates = make(map[Op]float64)
			}
			cfg.Rates[op] = r
		}
	}
	return cfg, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil || r < 0 || r > 1 {
		return 0, fmt.Errorf("faults: rate %q must be in [0,1]", val)
	}
	return r, nil
}

func knownOp(op Op) bool {
	for _, o := range AllOps {
		if o == op {
			return true
		}
	}
	return false
}

// opState is the per-class injection state: the effective rate, and the
// operation counter the PRNG is keyed on and the injected-fault counter,
// both registry counters.
type opState struct {
	hash     uint64 // FNV-1a of the op name, mixed into every draw
	rate     float64
	oneshots map[uint64]bool
	checked  *stats.Counter
	injected *stats.Counter
}

// Injector draws deterministic fault decisions for a plan. All methods
// are safe on a nil receiver (inject nothing) and safe for concurrent use
// from any goroutine: the hot path is one atomic add plus integer mixing.
type Injector struct {
	seed    uint64
	clock   vclock.Clock
	ops     map[Op]*opState
	metrics *stats.Registry
}

// New builds an injector for the plan. clock keys draws on virtual time
// (nil is allowed and reads as time zero — useful in plan-replay tests).
func New(cfg Config, clock vclock.Clock) *Injector {
	in := &Injector{
		seed:    cfg.Seed,
		clock:   clock,
		ops:     make(map[Op]*opState, len(AllOps)),
		metrics: stats.NewRegistry(),
	}
	for _, op := range AllOps {
		rate := cfg.Rate
		if r, ok := cfg.Rates[op]; ok {
			rate = r
		}
		st := &opState{hash: fnv1a(string(op)), rate: rate}
		if shots := cfg.OneShots[op]; len(shots) > 0 {
			st.oneshots = make(map[uint64]bool, len(shots))
			for _, n := range shots {
				st.oneshots[n] = true
			}
		}
		st.injected = in.metrics.Counter("injected." + string(op))
		st.checked = in.metrics.Counter("checked." + string(op))
		in.ops[op] = st
	}
	return in
}

// Metrics exposes the injector's registry: per-class injected.<op> and
// checked.<op> counters, merged into run snapshots as "faults.*".
func (in *Injector) Metrics() *stats.Registry {
	if in == nil {
		return nil
	}
	return in.metrics
}

// Injected reports how many faults of the class have fired.
func (in *Injector) Injected(op Op) uint64 {
	if in == nil {
		return 0
	}
	if st := in.ops[op]; st != nil {
		return st.injected.Load()
	}
	return 0
}

// Summary renders the nonzero injected counters in a stable order, for
// end-of-run reports.
func (in *Injector) Summary() string {
	if in == nil {
		return "faults: off"
	}
	var parts []string
	for _, op := range AllOps {
		if n := in.Injected(op); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", op, n))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return fmt.Sprintf("faults: seed=%d, none injected", in.seed)
	}
	return fmt.Sprintf("faults: seed=%d injected %s", in.seed, strings.Join(parts, " "))
}

// Fire advances the class's operation counter and reports whether this
// operation should fail (or be delayed, for latency classes).
func (in *Injector) Fire(op Op) bool {
	_, _, hit := in.fire(op)
	return hit
}

// FireErr is Fire with a deterministic error choice: nil when the
// operation proceeds, otherwise one of errs selected by a second draw.
func (in *Injector) FireErr(op Op, errs ...error) error {
	st, n, hit := in.fire(op)
	if !hit || len(errs) == 0 {
		return nil
	}
	return errs[in.draw(st.hash^pickSalt, n)%uint64(len(errs))]
}

// Latency is Fire with a drawn magnitude: zero when the operation runs at
// full speed, otherwise a duration in (0, max].
func (in *Injector) Latency(op Op, max time.Duration) time.Duration {
	st, n, hit := in.fire(op)
	if !hit || max <= 0 {
		return 0
	}
	return time.Duration(1 + in.draw(st.hash^latencySalt, n)%uint64(max))
}

// HardKey reports whether key (a block number, an object id) is in the
// class's permanently-bad set. The decision is stateless — a pure
// function of (seed, op, key) — so the same keys fail on every access,
// which is what distinguishes a hard sector error from a transient one.
func (in *Injector) HardKey(op Op, key uint64) bool {
	if in == nil {
		return false
	}
	st := in.ops[op]
	if st == nil || st.rate <= 0 {
		return false
	}
	if unit(splitmix64(in.seed^st.hash^splitmix64(key))) >= st.rate {
		return false
	}
	st.injected.Inc()
	return true
}

// fire draws the decision for the next operation of the class.
func (in *Injector) fire(op Op) (st *opState, n uint64, hit bool) {
	if in == nil {
		return nil, 0, false
	}
	st = in.ops[op]
	if st == nil {
		return nil, 0, false
	}
	n = st.checked.Inc()
	if st.oneshots != nil && st.oneshots[n] {
		st.injected.Inc()
		return st, n, true
	}
	if st.rate <= 0 {
		return st, n, false
	}
	if unit(in.draw(st.hash, n)) >= st.rate {
		return st, n, false
	}
	st.injected.Inc()
	return st, n, true
}

// draw mixes the seed, the operation class, the operation counter, and
// the current virtual time into one 64-bit value.
func (in *Injector) draw(ophash, n uint64) uint64 {
	var now uint64
	if in.clock != nil {
		now = uint64(in.clock.Now())
	}
	return splitmix64(in.seed ^ ophash ^ splitmix64(n) ^ bits.RotateLeft64(now, 31))
}

const (
	pickSalt    = 0xA5A5A5A5A5A5A5A5
	latencySalt = 0x5A5A5A5A5A5A5A5A
)

// unit maps a draw onto [0,1) with 53 bits of precision.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// splitmix64 is the SplitMix64 finalizer (Steele et al.), the standard
// stateless mixer for counter-keyed streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv1a hashes an op name at registration time.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
