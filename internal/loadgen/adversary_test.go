package loadgen_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hybrid/internal/core"
	"hybrid/internal/disk"
	"hybrid/internal/hio"
	"hybrid/internal/httpd"
	"hybrid/internal/kernel"
	"hybrid/internal/loadgen"
	"hybrid/internal/stats"
	"hybrid/internal/vclock"
)

// attack is one adversarial run's outcome.
type attack struct {
	adv *loadgen.Adversary
	st  stats.Snapshot // the server's registry, lifecycle counters included
	// spawned counts the threads the run spawned: its root, the
	// attackers, and whatever the server and the attack fork.
	spawned uint64
	// liveLate samples the live threads at liveAt, late in the run but
	// before the horizon.
	liveLate int64
}

const (
	attackers = 4
	horizon   = 100 * time.Millisecond
	liveAt    = 95 * time.Millisecond
)

// attackRun drives one adversarial run against a fresh server. A nil lc
// runs with defenses off.
func attackRun(t *testing.T, mode loadgen.AttackMode, lc *httpd.LifecycleConfig) attack {
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
	srv := httpd.NewServer(io, httpd.ServerConfig{CacheBytes: 1 << 20, Lifecycle: lc})
	serve(t, rt, srv)

	adv := loadgen.NewAdversary(io, loadgen.AttackConfig{
		Addr:      "web:80",
		Attackers: attackers,
		Mode:      mode,
		Seed:      17,
		Interval:  2 * time.Millisecond,
		Duration:  horizon,
		Files:     4,
	})
	var r attack
	// The sampler is spawned first, so it is not one of the run's threads
	// but is live when it samples: the floor is the server's accept loop
	// and the sampler.
	rt.Spawn(core.Then(io.Sleep(liveAt), core.Do(func() { r.liveLate = rt.Live() })))
	spawned := uint64(rt.Stats().Snapshot().Counter("spawned"))
	done := make(chan struct{})
	rt.Spawn(core.Then(adv.Run(), core.Do(func() { close(done) })))
	<-done
	r.adv, r.st, r.spawned = adv, srv.Metrics().Snapshot(), uint64(rt.Stats().Snapshot().Counter("spawned"))-spawned
	return r
}

var hardened = &httpd.LifecycleConfig{
	IdleTimeout:       10 * time.Millisecond,
	HeaderTimeout:     10 * time.Millisecond,
	BodyTimeout:       10 * time.Millisecond,
	WriteStallTimeout: 10 * time.Millisecond,
}

func TestAdversarySlowlorisShedByHardenedServer(t *testing.T) {
	r := attackRun(t, loadgen.AttackSlowloris, hardened)
	if r.st.Counter("shed_header") == 0 {
		t.Fatalf("no header sheds against slowloris: %+v", r.st)
	}
	if r.adv.Torndown.Load() == 0 {
		t.Fatal("attackers never observed a teardown")
	}
	// Shed attackers reconnect and get shed again: the defense fires
	// repeatedly across the horizon, not just once.
	if n := r.st.Counter("shed_header"); n < 8 {
		t.Fatalf("only %d header sheds over 100ms with a 10ms budget", n)
	}
}

func TestAdversaryIdleFloodReaped(t *testing.T) {
	r := attackRun(t, loadgen.AttackIdle, hardened)
	if r.st.Counter("reaped_idle") == 0 {
		t.Fatalf("no idle reaps against an idle flood: %+v", r.st)
	}
	if r.adv.Torndown.Load() == 0 {
		t.Fatal("attackers never observed a teardown")
	}
}

func TestAdversaryReadStallShed(t *testing.T) {
	r := attackRun(t, loadgen.AttackReadStall, hardened)
	if r.st.Counter("shed_write") == 0 {
		t.Fatalf("no write-stall sheds against a read-stall attack: %+v", r.st)
	}
}

func TestAdversaryChurnServedWithoutSheds(t *testing.T) {
	// Churn abandons connections before any deadline can pass; the server
	// just sees EOFs. The attack still completes and counts its cycles.
	r := attackRun(t, loadgen.AttackChurn, hardened)
	if r.adv.Conns.Load() < 20 {
		t.Fatalf("churn opened only %d connections over 100ms", r.adv.Conns.Load())
	}
}

func TestAdversaryDefenselessServerNeverSheds(t *testing.T) {
	// Against an unhardened server the attackers are never torn down:
	// they pin their connections until the horizon. This is the baseline
	// the fig21 bench contrasts.
	r := attackRun(t, loadgen.AttackSlowloris, nil)
	if n := r.st.Counter("reaped_idle") + r.st.Counter("shed_header") +
		r.st.Counter("shed_body") + r.st.Counter("shed_write"); n != 0 {
		t.Fatalf("%d lifecycle sheds with defenses off: %+v", n, r.st)
	}
	if r.adv.Torndown.Load() != 0 {
		t.Fatalf("attackers torn down %d times with defenses off", r.adv.Torndown.Load())
	}
	if r.adv.Conns.Load() != attackers {
		t.Fatalf("conns = %d, want exactly one pinned connection per attacker", r.adv.Conns.Load())
	}
}

func TestAdversaryDeterministic(t *testing.T) {
	type result struct {
		conns, torndown, sent uint64
		st                    stats.Snapshot
	}
	run := func() result {
		r := attackRun(t, loadgen.AttackSlowloris, hardened)
		return result{r.adv.Conns.Load(), r.adv.Torndown.Load(), r.adv.Sent.Load(), r.st}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("adversarial runs diverged: %+v vs %+v", a, b)
	}
}

// TestAdversaryIdleForksNothing: against a defenseless server every idle
// attacker parks on one connection until the horizon, where its session
// deadline closes the socket. The run spawns its root, the attackers and
// the server's handler for each connection, and nothing for the horizon.
func TestAdversaryIdleForksNothing(t *testing.T) {
	r := attackRun(t, loadgen.AttackIdle, nil)
	if got := r.adv.Torndown.Load(); got != 0 {
		t.Fatalf("attackers torn down %d times with defenses off", got)
	}
	conns := r.adv.Conns.Load()
	if conns != attackers {
		t.Fatalf("conns = %d, want one pinned connection per attacker", conns)
	}
	if want := 1 + attackers + conns; r.spawned != want {
		t.Fatalf("%d threads spawned, want %d (root, %d attackers, a handler per connection)", r.spawned, want, attackers)
	}
}

// TestAdversaryIdleShedsLeaveNothingParked: against the hardened server
// every idle connection is reaped and its attacker reconnects. A reaped
// connection leaves no thread parked behind it: late in the run the live
// threads are the floor (the accept loop and the sampler), the root, the
// attackers and at most one server handler each, however many
// connections the server has reaped.
func TestAdversaryIdleShedsLeaveNothingParked(t *testing.T) {
	r := attackRun(t, loadgen.AttackIdle, hardened)
	reaped := r.st.Counter("reaped_idle")
	if reaped < 2*attackers {
		t.Fatalf("only %d idle reaps: %+v", reaped, r.st)
	}
	if most := int64(2 + 1 + 2*attackers); r.liveLate > most {
		t.Fatalf("%d threads live at %v after %d reaps, want at most %d", r.liveLate, liveAt, reaped, most)
	}
	if want := 1 + attackers + r.adv.Conns.Load(); r.spawned != want {
		t.Fatalf("%d threads spawned, want %d (root, %d attackers, a handler per connection)", r.spawned, want, attackers)
	}
}

// arrival is what a recording victim read from one connection: its bytes
// and, per byte, the virtual time it arrived.
type arrival struct {
	bytes []byte
	at    []vclock.Time
}

// recordAttack runs attackers in mode against a victim that accepts every
// connection and reads everything, answering nothing and shedding nothing,
// and returns what each connection delivered. It checks that Sent counts
// exactly the bytes the victim received.
func recordAttack(t *testing.T, mode loadgen.AttackMode, interval, dur time.Duration) []*arrival {
	t.Helper()
	clk := vclock.NewVirtual()
	k := kernel.New(clk)
	rt := core.NewRuntime(core.Options{Workers: 1, Clock: clk})
	defer rt.Shutdown()
	io := hio.New(rt, k, nil)
	lfd, err := k.Listen("victim:80", 1024)
	if err != nil {
		t.Fatal(err)
	}
	var conns []*arrival
	var closed sync.WaitGroup
	closed.Add(attackers) // defenses off: one connection an attacker
	rt.Spawn(core.Forever(core.Bind(io.SockAccept(lfd), func(fd kernel.FD) core.M[core.Unit] {
		c := &arrival{}
		conns = append(conns, c)
		buf := make([]byte, 4096)
		return core.Fork(core.Loop(core.Bind(io.SockRead(fd, buf), func(n int) core.M[bool] {
			return core.NBIO(func() bool {
				if n == 0 {
					_ = k.Close(fd)
					closed.Done()
					return false
				}
				c.bytes = append(c.bytes, buf[:n]...)
				for range n {
					c.at = append(c.at, clk.Now())
				}
				return true
			})
		})))
	})))
	adv := loadgen.NewAdversary(io, loadgen.AttackConfig{
		Addr: "victim:80", Attackers: attackers, Mode: mode, Seed: 17,
		Interval: interval, Duration: dur, Files: 1,
	})
	done := make(chan struct{})
	rt.Spawn(core.Then(adv.Run(), core.Do(func() { close(done) })))
	<-done
	closed.Wait()
	if len(conns) != attackers || adv.Conns.Load() != attackers || adv.Torndown.Load() != 0 {
		t.Fatalf("%d connections accepted, %d opened, %d torn down: want %d, %d, 0",
			len(conns), adv.Conns.Load(), adv.Torndown.Load(), attackers, attackers)
	}
	var got uint64
	for _, c := range conns {
		got += uint64(len(c.bytes))
	}
	if sent := adv.Sent.Load(); sent != got {
		t.Fatalf("Sent = %d, the victim received %d", sent, got)
	}
	return conns
}

// rounds is how many intervals an attack loop that starts at start begins
// before the horizon dur.
func rounds(start vclock.Time, interval, dur time.Duration) int {
	return int((vclock.Time(dur) - start + vclock.Time(interval) - 1) / vclock.Time(interval))
}

// paced checks that the bytes arriving at at land one per interval, the
// first at first.
func paced(t *testing.T, at []vclock.Time, first vclock.Time, interval time.Duration) {
	t.Helper()
	for i, a := range at {
		if want := first + vclock.Time(i)*vclock.Time(interval); a != want {
			t.Fatalf("byte %d of the trickle arrived at %v, want %v", i, time.Duration(a), time.Duration(want))
		}
	}
}

// TestAdversarySlowlorisSendsHeadThenPadding pins what a slowloris
// attacker writes: the head's prefix, then 'a' padding, one byte per
// interval from its jittered start, one per round begun before the
// horizon.
func TestAdversarySlowlorisSendsHeadThenPadding(t *testing.T) {
	const interval, dur = time.Millisecond, 100 * time.Millisecond
	conns := recordAttack(t, loadgen.AttackSlowloris, interval, dur)
	head := "GET /file-0 HTTP/1.1\r\nHost: loris\r\nX-Pad: "
	for _, c := range conns {
		start := c.at[0]
		if start >= vclock.Time(interval) {
			t.Fatalf("first byte at %v, want within the one-interval jitter", time.Duration(start))
		}
		if want := head + strings.Repeat("a", rounds(start, interval, dur)-len(head)); string(c.bytes) != want {
			t.Fatalf("victim received %q, want %q", c.bytes, want)
		}
		paced(t, c.at, start, interval)
	}
}

// TestAdversaryReadStallSendsPipelineThenPokes pins what a read-stall
// attacker writes: its pipelined GETs at its jittered start, then one '.'
// an interval later per round begun before the horizon.
func TestAdversaryReadStallSendsPipelineThenPokes(t *testing.T) {
	const interval, dur = 2 * time.Millisecond, 100 * time.Millisecond
	conns := recordAttack(t, loadgen.AttackReadStall, interval, dur)
	get := "GET /file-0 HTTP/1.1\r\nHost: stall\r\nConnection: keep-alive\r\n\r\n"
	pipeline := len(get) * 8
	for _, c := range conns {
		start := c.at[0]
		if start >= vclock.Time(interval) {
			t.Fatalf("first byte at %v, want within the one-interval jitter", time.Duration(start))
		}
		want := strings.Repeat(get, 8) + strings.Repeat(".", rounds(start, interval, dur))
		if string(c.bytes) != want {
			t.Fatalf("victim received %q, want %q", c.bytes, want)
		}
		for i, a := range c.at[:pipeline] {
			if a != start {
				t.Fatalf("pipelined byte %d arrived at %v, want %v with the rest", i, time.Duration(a), time.Duration(start))
			}
		}
		paced(t, c.at[pipeline:], start+vclock.Time(interval), interval)
	}
}
