package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"hybrid/internal/bufpool"
	"hybrid/internal/core"
	"hybrid/internal/iovec"
	"hybrid/internal/netsim"
	"hybrid/internal/vclock"
)

// scripted is a connection on a lone stack whose peer is a script: the
// test hands its input whatever segments it likes, and the ACKs it sends
// back reach a host with no handler, which returns them to the pool.
type scripted struct {
	s   *Stack
	c   *Conn
	clk *vclock.VirtualClock
}

// scriptedISS is the scripted peer's initial sequence number, so its
// stream's byte i travels as sequence number scriptedISS+1+i.
const scriptedISS = 100

func newScripted(t testing.TB, cfg Config) *scripted {
	t.Helper()
	clk := vclock.NewVirtual()
	n := netsim.New(clk, 1)
	if _, err := n.Host("hostA", netsim.Ethernet100()); err != nil {
		t.Fatal(err)
	}
	hb, err := n.Host("hostB", netsim.Ethernet100())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(hb, cfg)
	if _, err := s.Listen(80); err != nil {
		t.Fatal(err)
	}
	syn := FlagSYN
	if cfg.SACK {
		syn |= FlagSACKOK
	}
	clk.Enter()
	s.input("hostA", encode(&Segment{SrcPort: 5000, DstPort: 80, Seq: scriptedISS, Flags: syn, Window: 65536}))
	c := s.conns[connKey{80, "hostA", 5000}]
	s.input("hostA", encode(&Segment{SrcPort: 5000, DstPort: 80, Seq: scriptedISS + 1, Ack: c.iss + 1, Flags: FlagACK, Window: 65536}))
	clk.Exit()
	if c.state != StateEstablished {
		t.Fatalf("scripted handshake left %v", c.state)
	}
	return &scripted{s: s, c: c, clk: clk}
}

// arrive delivers the stream's bytes [off, off+len(data)) as one segment.
func (p *scripted) arrive(off int, data []byte) {
	p.clk.Enter()
	p.s.input("hostA", encode(&Segment{
		SrcPort: 5000, DstPort: 80, Seq: scriptedISS + 1 + uint32(off), Ack: p.c.iss + 1,
		Flags: FlagACK, Window: 65536, Payload: iovec.FromBytes(data),
	}))
	p.clk.Exit()
}

// readAvailable reads everything the connection has in order.
func (p *scripted) readAvailable(t testing.TB) []byte {
	t.Helper()
	var got []byte
	buf := make([]byte, 700)
	for {
		n, err := p.c.TryRead(buf)
		if errors.Is(err, ErrWouldBlock) {
			return got
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
}

// delivered reports how much of the stream the connection has taken in
// order.
func (p *scripted) delivered() int {
	return int(p.c.rcvNxt - scriptedISS - 1)
}

func (p *scripted) reassembling() int {
	return len(p.c.ooo)
}

func streamBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

// TestReassemblyDropsEntriesTheAckPassed: an out-of-order segment, then an
// in-order one that covers it and more. The cumulative ACK passes the
// reassembly entry, which holds nothing new and must go — back to the
// pool, not left in the map for the life of the connection.
func TestReassemblyDropsEntriesTheAckPassed(t *testing.T) {
	p := newScripted(t, Config{})
	stream := streamBytes(300, 1)
	floor := bufpool.Outstanding()
	p.arrive(100, stream[100:200])
	p.arrive(0, stream)
	if got := p.delivered(); got != 300 {
		t.Fatalf("delivered %d bytes in order, want 300", got)
	}
	if n := p.reassembling(); n != 0 {
		t.Fatalf("%d reassembly entries left behind a cumulative ACK that passed them", n)
	}
	if got := p.readAvailable(t); !bytes.Equal(got, stream) {
		t.Fatalf("read %d bytes, want the 300 sent", len(got))
	}
	if got := bufpool.Outstanding(); got != floor {
		t.Fatalf("bufpool outstanding %d after reading everything, %d before", got, floor)
	}
}

// TestReassemblyTrimsEntryStraddlingTheAck: an out-of-order segment, then
// an in-order one that ends inside it. The entry straddles the new
// cumulative ACK; its bytes past the ACK are new and must be delivered,
// not held forever.
func TestReassemblyTrimsEntryStraddlingTheAck(t *testing.T) {
	p := newScripted(t, Config{})
	stream := streamBytes(200, 2)
	floor := bufpool.Outstanding()
	p.arrive(100, stream[100:200])
	p.arrive(0, stream[:150])
	if got := p.delivered(); got != 200 {
		t.Fatalf("delivered %d bytes in order, want 200: the straddling entry's tail is stranded", got)
	}
	if n := p.reassembling(); n != 0 {
		t.Fatalf("%d reassembly entries left after the hole filled", n)
	}
	if got := p.readAvailable(t); !bytes.Equal(got, stream) {
		t.Fatalf("read %d bytes, want the 200 sent", len(got))
	}
	if got := bufpool.Outstanding(); got != floor {
		t.Fatalf("bufpool outstanding %d after reading everything, %d before", got, floor)
	}
}

// FuzzReassemblyModel feeds one byte stream to a connection in arbitrary
// pieces — out of order, overlapping, duplicated, or already acknowledged —
// and holds it to a byte-array model: after every arrival the in-order
// point is the model's first missing byte, what reads return is the
// stream's prefix, and once the whole stream has arrived everything is
// delivered, the reassembly map is empty, and every datagram is back in
// the pool.
func FuzzReassemblyModel(f *testing.F) {
	f.Add([]byte{0, 0, 100, 12, 0, 50, 0x80 | 20, 0, 0, 30})
	f.Add([]byte{1, 0, 200, 50, 0, 100, 0x80 | 100, 1, 0, 0x80 | 5, 0, 150, 90})
	f.Add([]byte{1, 3, 0, 127, 1, 0, 127, 0, 0, 0x80 | 127})
	// Two segments from one offset, the second the longer: it is kept.
	f.Add([]byte("0$\x04 $\x0400\x00000\xff"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		const size = 4096
		p := newScripted(t, Config{SACK: script[0]&1 != 0})
		script = script[1:min(len(script), 1+3*256)]
		stream := streamBytes(size, 3)
		floor := bufpool.Outstanding()
		have := make([]bool, size)
		var got []byte
		prefix := 0
		// Each step is three bytes: a 12-bit offset, then a length in
		// 8-byte units whose top bit asks for a read after the arrival.
		for ; len(script) >= 3; script = script[3:] {
			off := int(binary.BigEndian.Uint16(script)) % size
			end := min(size, off+1+8*int(script[2]&0x7f))
			p.arrive(off, stream[off:end])
			for i := off; i < end; i++ {
				have[i] = true
			}
			for prefix < size && have[prefix] {
				prefix++
			}
			if d := p.delivered(); d != prefix {
				t.Fatalf("in order up to %d, the model says %d", d, prefix)
			}
			if script[2]&0x80 != 0 {
				got = append(got, p.readAvailable(t)...)
				if !bytes.Equal(got, stream[:len(got)]) || len(got) != prefix {
					t.Fatalf("read %d bytes, not the stream's first %d", len(got), prefix)
				}
			}
		}
		for off := 0; off < size; off += MSS {
			p.arrive(off, stream[off:min(size, off+MSS)])
		}
		got = append(got, p.readAvailable(t)...)
		if !bytes.Equal(got, stream) {
			t.Fatalf("read %d bytes, not the %d-byte stream", len(got), size)
		}
		if n := p.reassembling(); n != 0 {
			t.Fatalf("%d reassembly entries left with the whole stream delivered", n)
		}
		if got := bufpool.Outstanding(); got != floor {
			t.Fatalf("bufpool outstanding %d with everything read, %d before", got, floor)
		}
	})
}

// TestDatagramOwnership is the oracle for the pooled wire path: bulk
// transfers both ways over a link that loses, duplicates and reorders, with
// SACK on and off, then a receiver that aborts mid-transfer and drains what
// it still holds. Every byte must arrive intact — under the race detector
// bufpool poisons what is put back, so a datagram read after its Put
// corrupts the stream — and with every connection gone, every datagram
// must be back in the pool.
func TestDatagramOwnership(t *testing.T) {
	link := netsim.Ethernet100()
	link.LossProb, link.DupProb, link.ReorderProb = 0.03, 0.03, 0.1
	for _, sack := range []bool{false, true} {
		t.Run(fmt.Sprintf("sack=%v", sack), func(t *testing.T) {
			floor := bufpool.Outstanding()
			cfg := Config{SACK: sack, RTOMin: 20 * time.Millisecond, InitialRTO: 50 * time.Millisecond, MaxRetries: 16}
			w := newWorld(t, link, cfg)

			client, server := w.connectPair(t, 80)
			up, down := streamBytes(192<<10, 4), streamBytes(160<<10, 5)
			var gotUp, gotDown []byte
			w.run(t,
				core.Seq(send(client, up), client.CloseM()), readAll(server, 8192, &gotUp),
				core.Seq(send(server, down), server.CloseM()), readAll(client, 8192, &gotDown),
			)
			if !bytes.Equal(gotUp, up) || !bytes.Equal(gotDown, down) {
				t.Fatalf("received %d and %d bytes, want %d and %d intact", len(gotUp), len(gotDown), len(up), len(down))
			}

			// The receiver reads part of a 1 MB stream, aborts, and then
			// reads what it had already taken in: data in order stays
			// readable after an abort, and the reassembly map is emptied.
			client, server = w.connectPair(t, 81)
			big := streamBytes(1<<20, 6)
			head := make([]byte, 64<<10)
			var rest []byte
			var sendErr, readErr error
			w.run(t,
				catch(send(client, big), &sendErr),
				core.Then(server.ReadFullM(head), core.Seq(core.Do(server.Abort), catch(readAll(server, 8192, &rest), &readErr))),
			)
			got := append(head, rest...)
			if !bytes.Equal(got, big[:len(got)]) {
				t.Fatalf("aborted receiver read %d bytes that are not the stream's prefix", len(got))
			}
			if !errors.Is(readErr, ErrClosed) || sendErr == nil {
				t.Fatalf("after the abort: read error %v, send error %v", readErr, sendErr)
			}
			if got := bufpool.Outstanding(); got != floor {
				t.Fatalf("bufpool outstanding %d with every connection gone, %d before", got, floor)
			}
		})
	}
}
