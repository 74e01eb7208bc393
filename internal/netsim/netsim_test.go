package netsim

import (
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/vclock"
)

func pair(t *testing.T, link LinkParams) (*Network, *Host, *Host, *vclock.VirtualClock) {
	t.Helper()
	clk := vclock.NewVirtual()
	n := New(clk, 1)
	a, err := n.Host("a", link)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Host("b", link)
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b, clk
}

func TestDeliverBasic(t *testing.T) {
	_, a, b, clk := pair(t, LinkParams{Latency: time.Millisecond})
	var got []byte
	var src string
	var at vclock.Time
	b.SetHandler(func(s string, p []byte) { src, got, at = s, p, clk.Now() })
	clk.Enter()
	a.Send("b", []byte("hi"))
	clk.Exit()
	if string(got) != "hi" || src != "a" {
		t.Fatalf("got %q from %q", got, src)
	}
	if at != vclock.Time(time.Millisecond) {
		t.Fatalf("arrived at %v, want 1ms", at)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	// Two 1000-byte packets at 1 MB/s: second arrives 1 ms after first.
	_, a, b, clk := pair(t, LinkParams{Bandwidth: 1_000_000, Latency: 0})
	var times []vclock.Time
	b.SetHandler(func(string, []byte) { times = append(times, clk.Now()) })
	clk.Enter()
	a.Send("b", make([]byte, 1000))
	a.Send("b", make([]byte, 1000))
	clk.Exit()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := time.Duration(times[1] - times[0])
	if gap != time.Millisecond {
		t.Fatalf("serialization gap = %v, want 1ms", gap)
	}
}

func TestLossDropsRoughlyProportionally(t *testing.T) {
	_, a, b, clk := pair(t, LinkParams{LossProb: 0.5})
	got := 0
	b.SetHandler(func(string, []byte) { got++ })
	clk.Enter()
	const sent = 2000
	for i := 0; i < sent; i++ {
		a.Send("b", []byte{1})
	}
	clk.Exit()
	if got < sent/3 || got > 2*sent/3 {
		t.Fatalf("delivered %d of %d at 50%% loss", got, sent)
	}
}

func TestDuplication(t *testing.T) {
	_, a, b, clk := pair(t, LinkParams{DupProb: 1.0})
	got := 0
	b.SetHandler(func(string, []byte) { got++ })
	clk.Enter()
	a.Send("b", []byte{1})
	clk.Exit()
	if got != 2 {
		t.Fatalf("delivered %d copies, want 2", got)
	}
}

func TestUnknownHostDropped(t *testing.T) {
	n, a, _, clk := pair(t, LinkParams{})
	clk.Enter()
	a.Send("nowhere", []byte{1})
	clk.Exit()
	if _, _, dropped, _ := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestQueueOverflowTailDrop(t *testing.T) {
	_, a, b, clk := pair(t, LinkParams{Bandwidth: 1000, QueueLimit: 1500})
	got := 0
	b.SetHandler(func(string, []byte) { got++ })
	clk.Enter()
	for i := 0; i < 10; i++ {
		a.Send("b", make([]byte, 1000)) // only the first fits alongside another
	}
	clk.Exit()
	if got >= 10 {
		t.Fatalf("no tail drop: %d delivered", got)
	}
	if got == 0 {
		t.Fatal("everything dropped")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	runOnce := func() (int, vclock.Time) {
		clk := vclock.NewVirtual()
		n := New(clk, 99)
		a, _ := n.Host("a", LinkParams{LossProb: 0.3, Latency: time.Millisecond})
		b, _ := n.Host("b", LinkParams{})
		got := 0
		b.SetHandler(func(string, []byte) { got++ })
		clk.Enter()
		for i := 0; i < 500; i++ {
			a.Send("b", []byte{byte(i)})
		}
		clk.Exit()
		return got, clk.Now()
	}
	g1, t1 := runOnce()
	g2, t2 := runOnce()
	if g1 != g2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", g1, t1, g2, t2)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	clk := vclock.NewVirtual()
	n := New(clk, 1)
	if _, err := n.Host("x", LinkParams{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Host("x", LinkParams{}); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestPayloadIsolatedFromCallerBuffer(t *testing.T) {
	_, a, b, clk := pair(t, LinkParams{Latency: time.Millisecond})
	var got []byte
	b.SetHandler(func(_ string, p []byte) { got = p })
	buf := []byte("original")
	clk.Enter()
	a.Send("b", buf)
	copy(buf, "CLOBBER!")
	clk.Exit()
	if string(got) != "original" {
		t.Fatalf("payload aliased caller buffer: %q", got)
	}
}

func TestPathDropSeqDropsExactPackets(t *testing.T) {
	n, a, b, clk := pair(t, LinkParams{Latency: time.Millisecond})
	n.SetPath("a", "b", PathSpec{DropSeq: []uint64{1, 3}})
	var got []byte
	b.SetHandler(func(_ string, p []byte) { got = append(got, p...) })
	clk.Enter()
	for _, m := range []string{"0", "1", "2", "3", "4"} {
		a.Send("b", []byte(m))
	}
	clk.Exit()
	if string(got) != "024" {
		t.Fatalf("delivered %q, want packets 1 and 3 dropped", got)
	}
}

func TestPathSpecIsDirectional(t *testing.T) {
	// Loss on a->b must not touch b->a, and with LossProb=1 nothing gets
	// through in the shaped direction.
	n, a, b, clk := pair(t, LinkParams{Latency: time.Millisecond})
	n.SetPath("a", "b", PathSpec{LossProb: 1})
	var atB, atA int
	b.SetHandler(func(string, []byte) { atB++ })
	a.SetHandler(func(string, []byte) { atA++ })
	clk.Enter()
	for i := 0; i < 10; i++ {
		a.Send("b", []byte("x"))
		b.Send("a", []byte("y"))
	}
	clk.Exit()
	if atB != 0 {
		t.Fatalf("shaped direction delivered %d packets", atB)
	}
	if atA != 10 {
		t.Fatalf("reverse direction delivered %d of 10", atA)
	}
}

func TestPathSpecDoesNotPerturbOtherPaths(t *testing.T) {
	// The RNG stream seen by an unshaped network must be identical to the
	// one where a spec exists only on an unrelated path: same seed, same
	// deliveries.
	run := func(shapeExtra bool) []vclock.Time {
		clk := vclock.NewVirtual()
		n := New(clk, 42)
		link := LinkParams{Latency: time.Millisecond, ReorderProb: 0.5}
		a, _ := n.Host("a", link)
		b, _ := n.Host("b", link)
		c, _ := n.Host("c", link)
		_ = c
		if shapeExtra {
			n.SetPath("c", "a", PathSpec{LossProb: 0.9})
		}
		var times []vclock.Time
		b.SetHandler(func(string, []byte) { times = append(times, clk.Now()) })
		clk.Enter()
		for i := 0; i < 20; i++ {
			a.Send("b", []byte("x"))
		}
		clk.Exit()
		return times
	}
	plain, shaped := run(false), run(true)
	if len(plain) != len(shaped) {
		t.Fatalf("delivery counts differ: %d vs %d", len(plain), len(shaped))
	}
	for i := range plain {
		if plain[i] != shaped[i] {
			t.Fatalf("delivery %d at %v vs %v", i, plain[i], shaped[i])
		}
	}
}

// TestAllocNetsimPacket pins a packet's cost: a send and its delivery
// allocate one object, the payload copy the receiver keeps. The packet
// record and its two timers come back from the pool, and the departure
// and arrival re-arm timers bound once. (Under the race detector
// sync.Pool drops some of what is put back, so the count is not this one.)
func TestAllocNetsimPacket(t *testing.T) {
	if bufpool.RaceChecked {
		t.Skip("allocation counts differ under the race detector")
	}
	_, a, b, clk := pair(t, Ethernet100())
	payload := make([]byte, 1460)
	got := 0
	b.SetHandler(func(string, []byte) { got++ })
	allocs := testing.AllocsPerRun(200, func() {
		clk.Enter()
		a.Send("b", payload)
		clk.Exit()
	})
	if got != 201 {
		t.Fatalf("delivered %d packets, want 201", got)
	}
	if allocs != 1 {
		t.Fatalf("a packet allocates %.1f objects, want 1 (its payload copy)", allocs)
	}
}
