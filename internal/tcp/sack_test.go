package tcp

import (
	"reflect"
	"testing"

	"hybrid/internal/netsim"
	"hybrid/internal/vclock"
)

// blocks returns a copy of the current ranges, nil when there are none.
func (s *sackRanges) blocks() []SackBlock {
	if len(s.blks) == 0 {
		return nil
	}
	return append([]SackBlock(nil), s.blks...)
}

func sackOn(c *Conn) bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.sackOn
}

func TestSackNegotiation(t *testing.T) {
	cases := []struct {
		name           string
		client, server bool // cfg.SACK on each side
		want           bool
	}{
		{"both", true, true, true},
		{"client-only", true, false, false},
		{"server-only", false, true, false},
		{"neither", false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorldCfg(t, netsim.Ethernet100(), 7,
				Config{SACK: tc.client}, Config{SACK: tc.server})
			client, server := w.connectPair(t, 80)
			if got := sackOn(client); got != tc.want {
				t.Errorf("client sackOn = %v, want %v", got, tc.want)
			}
			if got := sackOn(server); got != tc.want {
				t.Errorf("server sackOn = %v, want %v", got, tc.want)
			}
			// The connection must work either way.
			transfer(t, w, client, server, 16*1024)
		})
	}
}

// TestSackTransferMatrix runs the loss/reorder/duplication transfer matrix
// with each recovery variant: stream integrity must hold regardless of the
// recovery machinery in play.
func TestSackTransferMatrix(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"newreno", Config{NewReno: true}},
		{"sack", Config{SACK: true}},
		{"sack-cubic", Config{SACK: true, Controller: "cubic"}},
		{"cubic-legacy", Config{Controller: "cubic"}},
	}
	link := netsim.Ethernet100()
	link.LossProb = 0.05
	link.ReorderProb = 0.1
	link.DupProb = 0.02
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			w := newWorld(t, link, v.cfg)
			client, server := w.connectPair(t, 80)
			transfer(t, w, client, server, 256*1024)
		})
	}
}

// TestSackRecoveryAvoidsRTO pins the headline benefit: a three-segment
// burst loss that costs the legacy machine RTO expiries is repaired
// entirely by SACK retransmissions.
func TestSackRecoveryAvoidsRTO(t *testing.T) {
	run := func(cfg Config) Stats {
		w := newWorld(t, netsim.Ethernet100(), cfg)
		w.net.SetPath("hostA", "hostB", netsim.PathSpec{DropSeq: []uint64{10, 11, 12}})
		client, server := w.connectPair(t, 80)
		transfer(t, w, client, server, 128*1024)
		_ = server
		return w.a.Snapshot()
	}
	legacy := run(Config{})
	sack := run(Config{SACK: true})
	if legacy.RTOExpiries == 0 {
		t.Fatalf("legacy run lost no time to RTO; drop pattern did not bite (stats %+v)", legacy)
	}
	if sack.RTOExpiries != 0 {
		t.Errorf("SACK run still hit %d RTOs (stats %+v)", sack.RTOExpiries, sack)
	}
	if sack.RecoveryRexmits == 0 {
		t.Errorf("SACK run recorded no scoreboard retransmissions (stats %+v)", sack)
	}
	if sack.FastRecoveries == 0 {
		t.Errorf("SACK run never entered fast recovery (stats %+v)", sack)
	}
}

// TestNewRenoFallbackWhenPeerLacksSACK: a SACK-configured client against a
// SACK-less server must degrade to NewReno recovery — no SACK blocks on
// the wire, but partial ACKs still repair holes without RTOs for moderate
// burst loss.
func TestNewRenoFallbackWhenPeerLacksSACK(t *testing.T) {
	w := newWorldCfg(t, netsim.Ethernet100(), 7, Config{SACK: true}, Config{})
	w.net.SetPath("hostA", "hostB", netsim.PathSpec{DropSeq: []uint64{10, 11}})
	client, server := w.connectPair(t, 80)
	if sackOn(client) {
		t.Fatal("client negotiated SACK against a SACK-less server")
	}
	transfer(t, w, client, server, 128*1024)
	st := w.a.Snapshot()
	if st.FastRecoveries == 0 {
		t.Errorf("fallback never entered recovery (stats %+v)", st)
	}
	if st.RecoveryRexmits == 0 {
		t.Errorf("fallback repaired no holes via partial ACKs (stats %+v)", st)
	}
}

func TestUnknownControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStack accepted an unknown controller name")
		}
	}()
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 7)
	h, err := n.Host("h", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	NewStack(h, Config{Controller: "vegas"})
}

// --- sackRanges unit tests ---------------------------------------------------

func blocksOf(pairs ...uint32) []SackBlock {
	if len(pairs)%2 != 0 {
		panic("pairs")
	}
	var out []SackBlock
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, SackBlock{Start: pairs[i], End: pairs[i+1]})
	}
	return out
}

func TestSackRangesMerge(t *testing.T) {
	cases := []struct {
		name string
		adds [][2]uint32
		want []SackBlock
	}{
		{"single", [][2]uint32{{100, 200}}, blocksOf(100, 200)},
		{"disjoint-sorted", [][2]uint32{{300, 400}, {100, 200}}, blocksOf(100, 200, 300, 400)},
		{"overlap-merges", [][2]uint32{{100, 200}, {150, 250}}, blocksOf(100, 250)},
		{"adjacent-merges", [][2]uint32{{100, 200}, {200, 300}}, blocksOf(100, 300)},
		{"bridge-merges-three", [][2]uint32{{100, 200}, {300, 400}, {150, 350}}, blocksOf(100, 400)},
		{"contained-noop", [][2]uint32{{100, 400}, {200, 300}}, blocksOf(100, 400)},
		{"inverted-ignored", [][2]uint32{{200, 100}}, nil},
		{"empty-ignored", [][2]uint32{{100, 100}}, nil},
		{
			"overflow-evicts-highest",
			[][2]uint32{{100, 110}, {200, 210}, {300, 310}, {400, 410}, {500, 510}},
			blocksOf(100, 110, 200, 210, 300, 310, 400, 410),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s sackRanges
			for _, a := range tc.adds {
				s.add(a[0], a[1])
			}
			if got := s.blocks(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("blocks = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSackRangesTrim(t *testing.T) {
	var s sackRanges
	s.add(100, 200)
	s.add(300, 400)
	s.add(500, 600)
	s.trim(300) // swallows [100,200) and the block starting at 300
	if got, want := s.blocks(), blocksOf(500, 600); !reflect.DeepEqual(got, want) {
		t.Errorf("after trim(300): %v, want %v", got, want)
	}
	s.trim(1000)
	if got := s.blocks(); got != nil {
		t.Errorf("after trim(1000): %v, want nil", got)
	}
}

func TestSackRangesWraparound(t *testing.T) {
	var s sackRanges
	base := ^uint32(0) - 50 // ranges straddling the 2^32 boundary
	s.add(base, base+100)
	s.add(base+200, base+300)
	want := blocksOf(base, base+100, base+200, base+300)
	if got := s.blocks(); !reflect.DeepEqual(got, want) {
		t.Errorf("blocks = %v, want %v", got, want)
	}
	s.trim(base + 150)
	if got, want := s.blocks(), blocksOf(base+200, base+300); !reflect.DeepEqual(got, want) {
		t.Errorf("after trim: %v, want %v", got, want)
	}
}
