package httpd_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"hybrid/internal/faults"
	"hybrid/internal/httpd"
	"hybrid/internal/loadgen"
	"hybrid/internal/overload"
)

// TestStressOverloadReplayIsDeterministic drives a seeded 4× load burst
// through the full overload stack — admission bound, shallow backlog, a
// breaker over a faulty disk — twice with the same seed, and requires
// every overload counter to replay bit-for-bit. The seed is logged on
// each run; replay a failure exactly with STRESS_SEED=<seed> make
// overload-stress.
func TestStressOverloadReplayIsDeterministic(t *testing.T) {
	seed := uint64(time.Now().UnixNano())
	if s := os.Getenv("STRESS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad STRESS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("stress seed %d (replay with STRESS_SEED=%d)", seed, seed)

	a := overloadStressCounters(t, seed)
	b := overloadStressCounters(t, seed)
	for name, av := range a {
		if bv := b[name]; av != bv {
			t.Errorf("[seed %d] counter %s: %d then %d across replays", seed, name, av, bv)
		}
	}
	if t.Failed() {
		t.Fatalf("overload counters did not replay; full snapshots:\nrun A: %v\nrun B: %v", a, b)
	}
	if a["gen.requests"] == 0 {
		t.Fatal("burst completed zero requests; stress is vacuous")
	}
	if a["breaker.trips"] == 0 {
		t.Fatalf("[seed %d] breaker never tripped over a 75%% faulty disk", seed)
	}
}

// overloadStressCounters runs one seeded burst and snapshots every
// overload-related counter.
func overloadStressCounters(t *testing.T, seed uint64) map[string]int64 {
	t.Helper()
	const capacity = 4
	s := newSite(t, 32, 4096)
	in := faults.New(faults.Config{
		Seed:  seed,
		Rates: map[faults.Op]float64{faults.DiskRead: 0.75},
	}, s.clk)
	s.fs.Disk().SetFaults(in)

	srv := httpd.NewServer(s.io, httpd.ServerConfig{
		CacheBytes: 1, // every GET takes the disk path
		Overload: &httpd.OverloadConfig{
			MaxConns: capacity,
			Backlog:  4,
			Breaker: &overload.BreakerConfig{
				FailureThreshold: 3,
				Cooldown:         5 * time.Millisecond,
			},
		},
	})
	s.serve(t, srv)

	gen := loadgen.New(s.io, loadgen.Config{
		Addr:              "web:80",
		Clients:           4 * capacity, // the 4× burst
		Files:             32,
		RequestsPerClient: 4,
		Seed:              seed,
		ConnectRetries:    100,
		ConnectBackoff:    200 * time.Microsecond,
	})
	runAndWait(s.rt, gen.Run())
	waitLiveOrFatal(t, s, 1)

	out := map[string]int64{
		"gen.requests":           int64(gen.Requests.Load()),
		"gen.errors":             int64(gen.Errors.Load()),
		"gen.2xx":                int64(gen.Statuses[2].Load()),
		"gen.5xx":                int64(gen.Statuses[5].Load()),
		"kernel.backlog_rejects": s.k.Metrics().Snapshot().Counter("backlog_rejects"),
	}
	hs := srv.Metrics().Snapshot()
	for _, c := range []string{"shed_fast", "class_cached", "class_disk", "class_meta"} {
		out["httpd."+c] = hs.Counter(c)
	}
	ls := srv.Limiter().Metrics().Snapshot()
	out["admission.admitted"] = ls.Counter("admitted")
	bs := srv.Breaker().Metrics().Snapshot()
	for _, c := range []string{"breaker_trips", "breaker_sheds", "breaker_probes", "breaker_closes"} {
		out["breaker."+trimBreakerPrefix(c)] = bs.Counter(c)
	}
	return out
}

func trimBreakerPrefix(c string) string {
	const p = "breaker_"
	return c[len(p):]
}
