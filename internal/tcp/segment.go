// Package tcp is an application-level TCP stack over the simulated packet
// network, reproducing §4.8 of the paper: "the ability to combine events
// and threads makes it practical to implement transport protocols like TCP
// at the application level in an elegant and type-safe way."
//
// The paper derives its stack from the HOL specification of TCP; this
// reproduction implements the same protocol surface from the RFCs it
// formalizes: the three-way handshake, sliding-window flow control,
// cumulative acknowledgements with out-of-order reassembly, retransmission
// with Jacobson/Karn RTT estimation and exponential backoff, fast
// retransmit on triple duplicate ACKs, slow start and congestion
// avoidance, zero-window probing, RST handling, and the full close state
// machine including TIME_WAIT.
//
// Structurally it follows the paper's Figure 14: packet-delivery events
// (worker_tcp_input) and timer events (worker_tcp_timer) drive a pure
// state machine under the stack's lock, while user threads interact
// through blocking operations built on the scheduler's Suspend hook.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"

	"hybrid/internal/iovec"
)

// Flags on a segment.
type Flags uint8

const (
	// FlagSYN synchronizes sequence numbers (connection setup).
	FlagSYN Flags = 1 << iota
	// FlagACK validates the Ack field.
	FlagACK
	// FlagFIN closes the sender's direction.
	FlagFIN
	// FlagRST aborts the connection.
	FlagRST
	// FlagSACKOK on a SYN or SYN-ACK advertises RFC 2018 selective
	// acknowledgment support (the "SACK-permitted" option); SACK blocks
	// flow only when both SYNs carried it.
	FlagSACKOK
)

func (f Flags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "S"
	}
	if f&FlagACK != 0 {
		s += "A"
	}
	if f&FlagFIN != 0 {
		s += "F"
	}
	if f&FlagRST != 0 {
		s += "R"
	}
	if f&FlagSACKOK != 0 {
		s += "K"
	}
	if s == "" {
		return "."
	}
	return s
}

// SackBlock is one contiguous range of received sequence space,
// [Start, End) in wraparound arithmetic, reported by the receiver above a
// hole (RFC 2018).
type SackBlock struct {
	Start, End uint32
}

// maxSackBlocks caps the SACK blocks carried on a segment and retained by
// a receiver, mirroring the real option's space limit (RFC 2018 §3: at
// most 4 blocks without timestamps).
const maxSackBlocks = 4

// Segment is one TCP segment. Window is 32-bit where real TCP uses a
// 16-bit field plus window scaling; carrying the scaled value directly is
// equivalent on the wire we control. Payload is an I/O vector: user data
// flows from write buffers through retransmission queues to the wire
// encoder without intermediate copies (§5.2's zero-copy design).
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            Flags
	Window           uint32
	Payload          iovec.Vec
	// Sack carries up to maxSackBlocks receiver-reported ranges above the
	// cumulative Ack (RFC 2018). Empty on every segment unless both ends
	// negotiated SACK; the wire encoding is byte-identical to the
	// pre-SACK format when empty.
	Sack []SackBlock
}

// headerSize is the encoded header length.
const headerSize = 2 + 2 + 4 + 4 + 1 + 4 + 4 + 4 // ports, seq, ack, flags, window, length, checksum

// ErrMalformed reports an undecodable or corrupt segment.
var ErrMalformed = errors.New("tcp: malformed segment")

// sackWireLen is the encoded size of a SACK option block: one count byte
// plus two sequence numbers per block, or nothing when there are none.
func sackWireLen(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + 8*n
}

// WireLen is the encoded length of the segment on the wire.
func (s *Segment) WireLen() int { return headerSize + s.Payload.Len() + sackWireLen(len(s.Sack)) }

// EncodeTo serializes the segment with a checksum into buf, whose length
// must be exactly WireLen. The payload vector is copied exactly once, into
// the wire buffer — buf may come from bufpool and be reclaimed as soon as
// the network layer has taken its own copy. SACK blocks, when present,
// trail the payload so every header offset (and the encoding of a
// SACK-less segment) is unchanged from the pre-SACK wire format.
func (s *Segment) EncodeTo(buf []byte) {
	if len(buf) != s.WireLen() {
		panic("tcp: EncodeTo buffer length mismatch")
	}
	if len(s.Sack) > maxSackBlocks {
		panic("tcp: too many SACK blocks")
	}
	binary.BigEndian.PutUint16(buf[0:], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:], s.Seq)
	binary.BigEndian.PutUint32(buf[8:], s.Ack)
	buf[12] = byte(s.Flags)
	binary.BigEndian.PutUint32(buf[13:], s.Window)
	binary.BigEndian.PutUint32(buf[17:], uint32(s.Payload.Len()))
	s.Payload.CopyTo(buf[headerSize:])
	if n := len(s.Sack); n > 0 {
		opt := buf[headerSize+s.Payload.Len():]
		opt[0] = byte(n)
		for i, b := range s.Sack {
			binary.BigEndian.PutUint32(opt[1+8*i:], b.Start)
			binary.BigEndian.PutUint32(opt[5+8*i:], b.End)
		}
	}
	binary.BigEndian.PutUint32(buf[21:], checksum(buf))
}

// Decode parses and verifies a segment. The decoded payload aliases buf
// (no copy): the caller transfers ownership of buf, which must stay
// immutable for as long as the payload may be referenced. The verify pass
// never writes to buf, so decoding the same delivery twice (a duplicated
// packet sharing one buffer) is safe.
func Decode(buf []byte) (*Segment, error) {
	s := new(Segment)
	if err := decodeInto(s, buf); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeInto is Decode into a segment the caller owns, which may live on
// the caller's stack. SACK blocks reuse s.Sack's storage when it has room
// for them.
func decodeInto(s *Segment, buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes", ErrMalformed, len(buf))
	}
	want := binary.BigEndian.Uint32(buf[21:])
	if got := checksum(buf); got != want {
		return fmt.Errorf("%w: bad checksum", ErrMalformed)
	}
	plen := binary.BigEndian.Uint32(buf[17:])
	if uint64(plen) > uint64(len(buf)-headerSize) {
		return fmt.Errorf("%w: length field %d vs %d", ErrMalformed, plen, len(buf)-headerSize)
	}
	s.SrcPort = binary.BigEndian.Uint16(buf[0:])
	s.DstPort = binary.BigEndian.Uint16(buf[2:])
	s.Seq = binary.BigEndian.Uint32(buf[4:])
	s.Ack = binary.BigEndian.Uint32(buf[8:])
	s.Flags = Flags(buf[12])
	s.Window = binary.BigEndian.Uint32(buf[13:])
	s.Payload = iovec.FromBytes(buf[headerSize : headerSize+int(plen)])
	s.Sack = s.Sack[:0]
	// Anything after the payload is the SACK option block: a count byte
	// then (start, end) pairs, each a nonempty range, at most
	// maxSackBlocks of them — anything else is malformed.
	if opt := buf[headerSize+int(plen):]; len(opt) > 0 {
		n := int(opt[0])
		if n == 0 || n > maxSackBlocks || len(opt) != sackWireLen(n) {
			return fmt.Errorf("%w: bad SACK option (%d bytes, count %d)", ErrMalformed, len(opt), n)
		}
		if cap(s.Sack) < n {
			s.Sack = make([]SackBlock, n)
		}
		s.Sack = s.Sack[:n]
		for i := range s.Sack {
			s.Sack[i] = SackBlock{
				Start: binary.BigEndian.Uint32(opt[1+8*i:]),
				End:   binary.BigEndian.Uint32(opt[5+8*i:]),
			}
			if !seqLT(s.Sack[i].Start, s.Sack[i].End) {
				return fmt.Errorf("%w: empty SACK block", ErrMalformed)
			}
		}
	}
	return nil
}

// checksum is Adler-32 over the encoded segment, treating the checksum
// field (bytes 21..24) as zero without touching it — so the same function
// serves encode (where those bytes are not yet written) and verify (where
// the buffer may be shared and must not be mutated). hash/adler32 sums the
// bytes either side of the field and the two sums are combined. The
// simulated wire does not corrupt bits, but the check guards against stack
// bugs and documents the real protocol's shape.
func checksum(buf []byte) uint32 {
	const mod = 65521
	head, tail := adler32.Checksum(buf[:21]), adler32.Checksum(buf[25:])
	a, b := uint64(head&0xffff), uint64(head>>16)
	ta, tb := uint64(tail&0xffff), uint64(tail>>16)
	// Four zero bytes leave a alone and add it to b four times. The tail's
	// sums began at a = 1, b = 0; begun at (a, b), each of its n bytes sees
	// a running sum larger by a−1 (+mod keeps that non-negative, and 64
	// bits keep n·(a−1) from overflowing).
	n := uint64(len(buf) - 25)
	b = (b + 4*a + n*(a+mod-1) + tb) % mod
	a = (a + ta + mod - 1) % mod
	return uint32(b<<16 | a)
}

// seqLen reports how much sequence space the segment occupies (payload
// plus one for SYN and one for FIN).
func (s *Segment) seqLen() uint32 {
	n := uint32(s.Payload.Len())
	if s.Flags&FlagSYN != 0 {
		n++
	}
	if s.Flags&FlagFIN != 0 {
		n++
	}
	return n
}

// Sequence-number arithmetic, wraparound-safe (RFC 793 comparisons).

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
