package bench

import (
	"time"

	"hybrid/internal/core"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// Fig21Config parameterizes the adversarial-robustness figure: a fixed
// population of well-behaved closed-loop clients shares a
// connection-limited server with a fleet of hostile clients, and the
// figure contrasts the good clients' goodput with the connection-
// lifecycle defenses off versus on. The server is sized so the attack
// decides the outcome: attackers alone can pin every connection slot,
// and only the lifecycle deadlines give the slots back.
type Fig21Config struct {
	// Files and FileBytes shape the (fully cached) fileset.
	Files     int
	FileBytes int64
	// CacheBytes comfortably holds the whole fileset: the figure is
	// about connection slots, not disk contention.
	CacheBytes int64
	// GoodClients run closed-loop sessions of SessionRequests requests
	// each for the whole horizon.
	GoodClients     int
	SessionRequests int
	// Attackers is the hostile client population — enough to occupy
	// MaxConns entirely when nothing evicts them.
	Attackers int
	// AttackInterval paces each attacker (byte trickle, reconnect gap).
	AttackInterval vclock.Duration
	// Horizon is the measured virtual-time window.
	Horizon vclock.Duration
	// MaxConns and Backlog bound the server: MaxConns in-flight
	// connections, Backlog connects parked behind them.
	MaxConns int
	Backlog  int
	// RTT and Bandwidth model the client-server link.
	RTT       time.Duration
	Bandwidth int64
	// Seed drives both populations' request streams and pacing jitter.
	Seed uint64
	// Lifecycle is the defended configuration (the "on" rows).
	Lifecycle httpd.LifecycleConfig
}

// DefaultFig21 sizes the contest so defenses are decisive: 64 attackers
// against 64 connection slots pin the server solid when left alone,
// while 10ms phase deadlines against a 20ms reconnect pace cap each
// hostile connection's slot duty-cycle near one quarter — leaving the
// 32 good clients slack to run near full speed.
func DefaultFig21() Fig21Config {
	return Fig21Config{
		Files:           64,
		FileBytes:       16 * 1024,
		CacheBytes:      4 << 20,
		GoodClients:     32,
		SessionRequests: 8,
		Attackers:       64,
		AttackInterval:  20 * time.Millisecond,
		Horizon:         time.Second,
		MaxConns:        64,
		Backlog:         32,
		RTT:             300 * time.Microsecond,
		Bandwidth:       100_000_000 / 8,
		Seed:            11,
		Lifecycle: httpd.LifecycleConfig{
			IdleTimeout:       10 * time.Millisecond,
			HeaderTimeout:     10 * time.Millisecond,
			BodyTimeout:       10 * time.Millisecond,
			WriteStallTimeout: 10 * time.Millisecond,
		},
	}
}

// Fig21Quick is reduced for tests and the determinism gate.
func Fig21Quick() Fig21Config {
	c := DefaultFig21()
	c.GoodClients = 16
	c.Attackers = 32
	c.MaxConns = 32
	c.Horizon = 250 * time.Millisecond
	return c
}

// Fig21Modes are the attack columns, in figure order. "none" is the
// no-attack baseline every other row is judged against.
var Fig21Modes = []string{"none", "slowloris", "idle", "read-stall", "churn"}

func fig21Mode(name string) (loadgen.AttackMode, bool) {
	switch name {
	case "slowloris":
		return loadgen.AttackSlowloris, true
	case "idle":
		return loadgen.AttackIdle, true
	case "read-stall":
		return loadgen.AttackReadStall, true
	case "churn":
		return loadgen.AttackChurn, true
	}
	return 0, false
}

// Fig21Point is one cell: an attack mode against one defense setting.
type Fig21Point struct {
	// Mode is the attack ("none" for the baseline).
	Mode string
	// Defended reports whether the lifecycle deadlines were armed.
	Defended bool
	// GoodputMBps is the well-behaved clients' delivered 2xx bytes per
	// second of virtual time across the horizon.
	GoodputMBps float64
	// GoodRequests and GoodErrors are the good clients' totals.
	GoodRequests uint64
	GoodErrors   uint64
	// P99Us is the good clients' p99 request latency (µs, virtual).
	P99Us int64
	// AttackConns and Torndown count hostile connections opened and torn
	// down by the server.
	AttackConns uint64
	Torndown    uint64
	// Server is the server's registry snapshot once the run has drained;
	// its reaped_idle and shed_* counters break the defense firings down
	// by phase.
	Server stats.Snapshot
}

// Sheds counts the connections the lifecycle defenses tore down, in every
// phase.
func (p Fig21Point) Sheds() uint64 {
	var n int64
	for _, k := range [...]string{"reaped_idle", "shed_header", "shed_body", "shed_write"} {
		n += p.Server.Counter(k)
	}
	return uint64(n)
}

// Fig21Run measures one cell.
func Fig21Run(cfg Fig21Config, mode string, defended bool) Fig21Point {
	scfg := httpd.ServerConfig{
		CacheBytes: cfg.CacheBytes,
		ChunkBytes: int(cfg.FileBytes),
		Overload: &httpd.OverloadConfig{
			MaxConns: cfg.MaxConns,
			Backlog:  cfg.Backlog,
		},
	}
	if defended {
		lc := cfg.Lifecycle
		scfg.Lifecycle = &lc
	}
	s := NewSite(Spec{Files: cfg.Files, FileBytes: cfg.FileBytes, Server: scfg})
	defer s.Close()
	// The figure measures connection-slot contention under attack, not
	// cold-start disk behavior: every request in the horizon is a hit.
	s.Warm()

	gen := loadgen.New(s.IO, loadgen.Config{
		Addr:            Addr,
		Clients:         cfg.GoodClients,
		Files:           cfg.Files,
		Seed:            cfg.Seed,
		RTT:             cfg.RTT,
		Bandwidth:       cfg.Bandwidth,
		MeasureLatency:  true,
		Horizon:         cfg.Horizon,
		SessionRequests: cfg.SessionRequests,
		ConnectBackoff:  2 * time.Millisecond,
		// A session wedged behind attacker-held slots is abandoned fast:
		// healthy sessions finish in ~10ms, so 50ms is generous for them
		// and cheap for the stuck.
		SessionTimeout: 50 * time.Millisecond,
	})
	// Goodput is measured over the generator's own window — the
	// adversary's wind-down past the horizon must not dilute it — so the
	// timed workload is the generator alone.
	work := gen.Run()
	var adv *loadgen.Adversary
	if am, ok := fig21Mode(mode); ok {
		adv = loadgen.NewAdversary(s.IO, loadgen.AttackConfig{
			Addr:      Addr,
			Attackers: cfg.Attackers,
			Mode:      am,
			Seed:      cfg.Seed * 1_000_003,
			Interval:  cfg.AttackInterval,
			Duration:  cfg.Horizon,
			Files:     cfg.Files,
		})
		// Both populations launch from a single root thread, not separate
		// Spawns: a second Spawn from the host goroutine races the worker,
		// which can drain the first population to quiescence — arming
		// timers and advancing virtual time — before the second is
		// published. Forking inside the worker keeps the launch order (and
		// so every (when, seq) assignment) deterministic at any GOMAXPROCS.
		work = core.Then(core.Fork(adv.Run()), work)
	}
	elapsed := s.Run(work)
	// Drain to the accept loop before reading counters: the adversary is
	// still winding down past the horizon.
	s.Drain()

	p := Fig21Point{
		Mode:         mode,
		Defended:     defended,
		GoodputMBps:  mbPerSec(gen.Goodput.Load(), elapsed),
		GoodRequests: gen.Requests.Load(),
		GoodErrors:   gen.Errors.Load(),
		P99Us:        gen.Latency().Quantile(0.99),
		Server:       s.Srv.Metrics().Snapshot(),
	}
	if adv != nil {
		p.AttackConns = adv.Conns.Load()
		p.Torndown = adv.Torndown.Load()
	}
	return p
}
