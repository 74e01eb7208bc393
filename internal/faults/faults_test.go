package faults

import (
	"errors"
	"testing"
	"time"

	"hybrid/internal/vclock"
)

// drainPlan records the first n decisions for an op as a bitstring.
func drainPlan(in *Injector, op Op, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Fire(op)
	}
	return out
}

// TestSameSeedSamePlan is the determinism law: two injectors built from
// the same config draw identical decision sequences for every op class.
func TestSameSeedSamePlan(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.3}
	a, b := New(cfg, nil), New(cfg, nil)
	for _, op := range AllOps {
		pa, pb := drainPlan(a, op, 500), drainPlan(b, op, 500)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("op %s: plans diverge at draw %d", op, i)
			}
		}
	}
}

// TestSeedChangesPlan: different seeds must give different plans (with
// overwhelming probability at rate 0.5 over 500 draws).
func TestSeedChangesPlan(t *testing.T) {
	a := New(Config{Seed: 1, Rate: 0.5}, nil)
	b := New(Config{Seed: 2, Rate: 0.5}, nil)
	pa, pb := drainPlan(a, DiskRead, 500), drainPlan(b, DiskRead, 500)
	same := 0
	for i := range pa {
		if pa[i] == pb[i] {
			same++
		}
	}
	if same == len(pa) {
		t.Fatal("seeds 1 and 2 produced identical 500-draw plans")
	}
}

// TestRateZeroNeverFires / TestRateOneAlwaysFires pin the endpoints.
func TestRateZeroNeverFires(t *testing.T) {
	in := New(Config{Seed: 7}, nil) // Rate 0
	for _, op := range AllOps {
		for i := 0; i < 200; i++ {
			if in.Fire(op) {
				t.Fatalf("op %s fired at rate 0", op)
			}
		}
	}
	if got := in.Injected(DiskRead); got != 0 {
		t.Fatalf("injected counter = %d at rate 0", got)
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	in := New(Config{Seed: 7, Rate: 1}, nil)
	for i := 0; i < 200; i++ {
		if !in.Fire(KernelRead) {
			t.Fatalf("draw %d did not fire at rate 1", i)
		}
	}
}

// TestRateRoughlyHolds: the empirical rate over many draws should be in
// the right neighbourhood (deterministic given the seed, so no flake).
func TestRateRoughlyHolds(t *testing.T) {
	in := New(Config{Seed: 99, Rate: 0.1}, nil)
	fired := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if in.Fire(NetDrop) {
			fired++
		}
	}
	if fired < n/20 || fired > n/5 {
		t.Fatalf("rate 0.1: %d/%d fired", fired, n)
	}
}

// TestOneShot: a one-shot fires exactly at the configured operation
// count, and nowhere else when the rate is zero.
func TestOneShot(t *testing.T) {
	in := New(Config{Seed: 3, OneShots: map[Op][]uint64{DiskWrite: {5, 9}}}, nil)
	for i := 1; i <= 20; i++ {
		fired := in.Fire(DiskWrite)
		want := i == 5 || i == 9
		if fired != want {
			t.Fatalf("op %d: fired=%v want %v", i, fired, want)
		}
	}
	if got := in.Injected(DiskWrite); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
}

// TestPerOpRatesOverride: Rates[op] overrides the default Rate, and 0
// disables a class even when the default is 1.
func TestPerOpRatesOverride(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 1, Rates: map[Op]float64{TCPDrop: 0}}, nil)
	for i := 0; i < 50; i++ {
		if in.Fire(TCPDrop) {
			t.Fatal("TCPDrop fired despite rate override 0")
		}
		if !in.Fire(TCPReset) {
			t.Fatal("TCPReset did not fire at default rate 1")
		}
	}
}

// TestFireErrDeterministicChoice: FireErr picks among the errors
// deterministically — two same-seed injectors return identical error
// sequences.
func TestFireErrDeterministicChoice(t *testing.T) {
	e1, e2, e3 := errors.New("a"), errors.New("b"), errors.New("c")
	cfg := Config{Seed: 11, Rate: 0.8}
	a, b := New(cfg, nil), New(cfg, nil)
	seenDistinct := map[error]bool{}
	for i := 0; i < 300; i++ {
		ea := a.FireErr(KernelWrite, e1, e2, e3)
		eb := b.FireErr(KernelWrite, e1, e2, e3)
		if ea != eb {
			t.Fatalf("draw %d: error choice diverged: %v vs %v", i, ea, eb)
		}
		if ea != nil {
			seenDistinct[ea] = true
		}
	}
	if len(seenDistinct) < 2 {
		t.Fatalf("error choice never varied: %v", seenDistinct)
	}
}

// TestLatencyBounds: injected latency is always in (0, max] and zero
// when the draw does not fire.
func TestLatencyBounds(t *testing.T) {
	in := New(Config{Seed: 13, Rate: 0.5}, nil)
	const max = 20 * time.Millisecond
	fired := 0
	for i := 0; i < 500; i++ {
		d := in.Latency(DiskLatency, max)
		if d < 0 || d > max {
			t.Fatalf("latency %v out of (0, %v]", d, max)
		}
		if d > 0 {
			fired++
		}
	}
	if fired == 0 || fired == 500 {
		t.Fatalf("latency fired %d/500 at rate 0.5", fired)
	}
}

// TestHardKeyStable: the bad-key set is a pure function of (seed, key) —
// repeated queries agree, different seeds give different sets.
func TestHardKeyStable(t *testing.T) {
	in := New(Config{Seed: 17, Rates: map[Op]float64{DiskHard: 0.2}}, nil)
	first := make([]bool, 200)
	bad := 0
	for k := range first {
		first[k] = in.HardKey(DiskHard, uint64(k))
		if first[k] {
			bad++
		}
	}
	if bad == 0 || bad == len(first) {
		t.Fatalf("hard-key rate 0.2 marked %d/200 keys", bad)
	}
	for trial := 0; trial < 3; trial++ {
		for k := range first {
			if in.HardKey(DiskHard, uint64(k)) != first[k] {
				t.Fatalf("key %d changed verdict on re-query", k)
			}
		}
	}
	other := New(Config{Seed: 18, Rates: map[Op]float64{DiskHard: 0.2}}, nil)
	diff := 0
	for k := range first {
		if other.HardKey(DiskHard, uint64(k)) != first[k] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 17 and 18 agree on every hard key")
	}
}

// TestClockMixesIntoDraws: the same op counter at different virtual times
// can draw differently — time is part of the key (this is what makes a
// replay require the same schedule, not just the same seed).
func TestClockMixesIntoDraws(t *testing.T) {
	clk := vclock.NewVirtual()
	cfg := Config{Seed: 23, Rate: 0.5}
	a := New(cfg, clk)
	planAtT0 := drainPlan(a, NetDup, 200)

	clk.Enter()
	clk.After(time.Second, func() {})
	clk.Exit() // advances to t=1s
	b := New(cfg, clk)
	planAtT1 := drainPlan(b, NetDup, 200)
	same := 0
	for i := range planAtT0 {
		if planAtT0[i] == planAtT1[i] {
			same++
		}
	}
	if same == len(planAtT0) {
		t.Fatal("plans identical across different virtual times")
	}
}

// TestNilInjectorSafe: every method is a no-op on nil.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Fire(DiskRead) {
		t.Fatal("nil injector fired")
	}
	if err := in.FireErr(KernelRead, errors.New("x")); err != nil {
		t.Fatal("nil injector returned error")
	}
	if d := in.Latency(DiskLatency, time.Second); d != 0 {
		t.Fatal("nil injector returned latency")
	}
	if in.HardKey(DiskHard, 1) {
		t.Fatal("nil injector marked a hard key")
	}
	if in.Metrics() != nil || in.Injected(DiskRead) != 0 {
		t.Fatal("nil injector accessors not zero")
	}
	if in.Summary() != "faults: off" {
		t.Fatalf("nil summary = %q", in.Summary())
	}
}

// TestMetricsCounters: checked.* counts every draw, injected.* only hits.
func TestMetricsCounters(t *testing.T) {
	in := New(Config{Seed: 29, Rate: 1}, nil)
	for i := 0; i < 10; i++ {
		in.Fire(DiskRead)
	}
	snap := in.Metrics().Snapshot()
	if got := snap.Counter("checked.disk.read"); got != 10 {
		t.Fatalf("checked = %d, want 10", got)
	}
	if got := snap.Counter("injected.disk.read"); got != 10 {
		t.Fatalf("injected = %d, want 10", got)
	}
	if got := snap.Counter("injected.disk.write"); got != 0 {
		t.Fatalf("disk.write injected = %d, want 0", got)
	}
}

func TestConfigActive(t *testing.T) {
	var nilCfg *Config
	cases := []struct {
		name string
		cfg  *Config
		want bool
	}{
		{"nil", nilCfg, false},
		{"zero", &Config{Seed: 1}, false},
		{"rate", &Config{Rate: 0.1}, true},
		{"perOp", &Config{Rates: map[Op]float64{DiskRead: 0.5}}, true},
		{"perOpZero", &Config{Rates: map[Op]float64{DiskRead: 0}}, false},
		{"oneshot", &Config{OneShots: map[Op][]uint64{DiskRead: {1}}}, true},
	}
	for _, c := range cases {
		if got := c.cfg.Active(); got != c.want {
			t.Errorf("%s: Active() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	if cfg, err := ParseSpec(""); err != nil || cfg != nil {
		t.Fatalf("empty spec: %v, %v", cfg, err)
	}
	if cfg, err := ParseSpec("off"); err != nil || cfg != nil {
		t.Fatalf("off spec: %v, %v", cfg, err)
	}
	cfg, err := ParseSpec("seed=7,rate=0.01,disk.read=0.5,oneshot:tcp.reset=3")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Rate != 0.01 {
		t.Fatalf("seed/rate = %d/%v", cfg.Seed, cfg.Rate)
	}
	if cfg.Rates[DiskRead] != 0.5 {
		t.Fatalf("per-op rate = %v", cfg.Rates[DiskRead])
	}
	if shots := cfg.OneShots[TCPReset]; len(shots) != 1 || shots[0] != 3 {
		t.Fatalf("oneshots = %v", cfg.OneShots)
	}
	if !cfg.Active() {
		t.Fatal("parsed spec not active")
	}
	for _, bad := range []string{"nope", "seed=x", "rate=2", "bogus.op=0.5", "oneshot:disk.read=0", "oneshot:bogus=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	// Default seed is 1 when only a rate is given.
	cfg, err = ParseSpec("rate=0.5")
	if err != nil || cfg.Seed != 1 {
		t.Fatalf("default seed: %v, %v", cfg, err)
	}
}
