package bench

import (
	"fmt"
	"math/rand"
	"time"

	"hybrid/internal/netsim"
	"hybrid/internal/tcp"
	"hybrid/internal/tcp/tracecheck"
)

// Fig20Config parameterizes the loss-recovery comparison: one connection
// transfers TransferBytes over a WAN-shaped link while an exact,
// seed-derived set of data packets is dropped, for each recovery variant.
// The drop set is positional (packet indices, not coin flips per
// transmission), so every variant loses exactly the same original packets
// and the curves isolate the recovery machinery rather than the luck of
// each variant's retransmission-perturbed RNG stream.
type Fig20Config struct {
	// TransferBytes per trial.
	TransferBytes int
	// Trials per (variant, loss) cell; goodputs are averaged. Each trial
	// uses a different drop-set seed, the same across variants.
	Trials int
	// LossPermille is the x axis: drop probability per data packet in
	// tenths of a percent (50 = 5% loss).
	LossPermille []int
	// Base is the stack configuration shared by all variants; the variant
	// switches (SACK, NewReno, Controller) are overlaid on it.
	Base tcp.Config
	// Seed is the netsim RNG seed.
	Seed int64
}

// DefaultFig20 is the committed figure's configuration.
func DefaultFig20() Fig20Config {
	return Fig20Config{
		TransferBytes: 256 * 1024,
		Trials:        5,
		LossPermille:  []int{0, 5, 10, 20, 50},
		Base: tcp.Config{
			RTOMin:     50 * time.Millisecond,
			InitialRTO: 100 * time.Millisecond,
			MaxRetries: 16,
		},
		Seed: 1,
	}
}

// Fig20Quick is reduced for tests and the bench trajectory.
func Fig20Quick() Fig20Config {
	c := DefaultFig20()
	c.TransferBytes = 64 * 1024
	c.Trials = 3
	c.LossPermille = []int{0, 10, 20, 50}
	return c
}

// fig20Link shapes both hosts' egress: a 10 Mbps WAN with 2 ms one-way
// propagation.
func fig20Link() netsim.LinkParams {
	return netsim.LinkParams{Bandwidth: 10_000_000 / 8, Latency: 2 * time.Millisecond}
}

// Fig20Variants lists the recovery variants in figure order.
var Fig20Variants = []string{"reno", "newreno", "sack-reno", "sack-cubic"}

// fig20Cfg overlays one variant's switches on the base configuration.
func fig20Cfg(base tcp.Config, variant string) tcp.Config {
	switch variant {
	case "reno":
	case "newreno":
		base.NewReno = true
	case "sack-reno":
		base.SACK = true
	case "sack-cubic":
		base.SACK = true
		base.Controller = "cubic"
	default:
		panic("bench: unknown fig20 variant " + variant)
	}
	return base
}

// fig20Drops derives the trial's positional drop set: client→server path
// packet indices sampled at the cell's loss rate across the span of the
// transfer. Indices 0 and 1 (SYN, handshake ACK) are never dropped — the
// figure measures data recovery, not connection establishment.
func fig20Drops(cfg Fig20Config, permille int, trial int) []uint64 {
	span := uint64(cfg.TransferBytes/tcp.MSS) + 4
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(trial)*8191 + int64(permille)))
	var out []uint64
	for i := uint64(2); i < 2+span; i++ {
		if rng.Float64()*1000 < float64(permille) {
			out = append(out, i)
		}
	}
	return out
}

// Fig20Cell runs one (variant, loss) cell: Trials transfers, each under
// that trial's drop set, returning mean goodput in MB/s of virtual time.
// Goodput divides by the transfer's completion time (server EOF), not the
// connection's full lifetime — TIME_WAIT drain is recovery-independent
// noise at this scale.
func Fig20Cell(cfg Fig20Config, variant string, permille int) float64 {
	sum := 0.0
	for trial := 0; trial < cfg.Trials; trial++ {
		r, err := tracecheck.Run(tracecheck.Scenario{
			Cfg:       fig20Cfg(cfg.Base, variant),
			Link:      fig20Link(),
			Seed:      cfg.Seed,
			SendBytes: cfg.TransferBytes,
			DropC2S:   fig20Drops(cfg, permille, trial),
		})
		if err != nil {
			panic(fmt.Sprintf("fig20 %s @%d‰ trial %d: %v", variant, permille, trial, err))
		}
		sum += float64(cfg.TransferBytes) / float64(MB) / r.Done.Seconds()
	}
	return sum / float64(cfg.Trials)
}

// Fig20Point is one loss rate's goodput across the four variants.
type Fig20Point struct {
	LossPermille int
	Goodput      map[string]float64 // variant name → mean MB/s
}

// Fig20Loss runs the full figure: goodput vs loss rate for plain Reno,
// NewReno, SACK+Reno, and SACK+CUBIC.
func Fig20Loss(cfg Fig20Config) []Fig20Point {
	out := make([]Fig20Point, 0, len(cfg.LossPermille))
	for _, pm := range cfg.LossPermille {
		p := Fig20Point{LossPermille: pm, Goodput: make(map[string]float64, len(Fig20Variants))}
		for _, v := range Fig20Variants {
			p.Goodput[v] = Fig20Cell(cfg, v, pm)
		}
		out = append(out, p)
	}
	return out
}
