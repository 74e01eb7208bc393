package loadgen_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/vclock"
)

// TestStressAdversarialReplayIsDeterministic drives a seeded adversarial
// scenario — good closed-loop clients sharing a slot-limited, hardened
// server with a hostile fleet whose attack mode is drawn from the seed —
// twice with the same seed, and requires every shed, reap, and goodput
// counter to replay bit-for-bit. The seed is logged on each run; replay
// a failure exactly with STRESS_SEED=<seed> make adversarial-smoke.
func TestStressAdversarialReplayIsDeterministic(t *testing.T) {
	seed := uint64(time.Now().UnixNano())
	if s := os.Getenv("STRESS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad STRESS_SEED %q: %v", s, err)
		}
		seed = v
	}
	modes := []loadgen.AttackMode{
		loadgen.AttackSlowloris, loadgen.AttackIdle,
		loadgen.AttackReadStall, loadgen.AttackChurn,
	}
	mode := modes[seed%uint64(len(modes))]
	t.Logf("stress seed %d, mode %s (replay with STRESS_SEED=%d)", seed, mode, seed)

	a := adversarialStressCounters(t, seed, mode)
	b := adversarialStressCounters(t, seed, mode)
	for name, av := range a {
		if bv := b[name]; av != bv {
			t.Errorf("[seed %d] counter %s: %d then %d across replays", seed, name, av, bv)
		}
	}
	if t.Failed() {
		t.Fatalf("adversarial counters did not replay; full snapshots:\nrun A: %v\nrun B: %v", a, b)
	}
	if a["gen.requests"] == 0 {
		t.Fatal("good clients completed zero requests; stress is vacuous")
	}
	if mode != loadgen.AttackChurn && a["lifecycle.total"] == 0 {
		t.Fatalf("[seed %d] hardened server never shed a %s attacker", seed, mode)
	}
}

// adversarialStressCounters runs one seeded contest and snapshots every
// lifecycle and goodput counter.
func adversarialStressCounters(t *testing.T, seed uint64, mode loadgen.AttackMode) map[string]int64 {
	t.Helper()
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	fs := kernel.NewFS(disk.New(clk, disk.DefaultGeometry()))
	if err := loadgen.MakeFileset(fs, 4, 16384); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, fs)
	srv := httpd.NewServer(io, httpd.ServerConfig{
		CacheBytes: 1 << 20,
		Overload:   &httpd.OverloadConfig{MaxConns: 8, Backlog: 16},
		Lifecycle: &httpd.LifecycleConfig{
			IdleTimeout:       10 * time.Millisecond,
			HeaderTimeout:     10 * time.Millisecond,
			BodyTimeout:       10 * time.Millisecond,
			WriteStallTimeout: 10 * time.Millisecond,
		},
	})
	serve(t, rt, srv)

	adv := loadgen.NewAdversary(io, loadgen.AttackConfig{
		Addr:      "web:80",
		Attackers: 8,
		Mode:      mode,
		Seed:      seed,
		Interval:  2 * time.Millisecond,
		Duration:  100 * time.Millisecond,
		Files:     4,
	})
	gen := loadgen.New(io, loadgen.Config{
		Addr:              "web:80",
		Clients:           8,
		Files:             4,
		RequestsPerClient: 8,
		Seed:              seed,
		ConnectRetries:    200,
		ConnectBackoff:    500 * time.Microsecond,
	})
	advDone := make(chan struct{})
	genDone := make(chan struct{})
	// One root spawn, forking the adversary from inside the worker: two
	// separate Spawns race the worker at GOMAXPROCS>1 — the first
	// population can arm timers and advance virtual time before the
	// second is published, which perturbs every later (when, seq) pair.
	rt.Spawn(core.Then(
		core.Fork(core.Then(adv.Run(), core.Do(func() { close(advDone) }))),
		core.Then(gen.Run(), core.Do(func() { close(genDone) })),
	))
	<-advDone
	<-genDone
	rt.WaitLive(1)

	st := srv.LifecycleStats()
	return map[string]int64{
		"gen.requests":     int64(gen.Requests.Load()),
		"gen.errors":       int64(gen.Errors.Load()),
		"gen.2xx":          int64(gen.Statuses[2].Load()),
		"adv.conns":        int64(adv.Conns.Load()),
		"adv.torndown":     int64(adv.Torndown.Load()),
		"adv.sent":         int64(adv.Sent.Load()),
		"lifecycle.idle":   int64(st.ReapedIdle),
		"lifecycle.header": int64(st.ShedHeader),
		"lifecycle.body":   int64(st.ShedBody),
		"lifecycle.write":  int64(st.ShedWrite),
		"lifecycle.total":  int64(st.Total()),
	}
}
