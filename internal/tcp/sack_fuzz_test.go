package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hybrid/internal/iovec"
)

// FuzzSackRanges drives a sackRanges through a fuzzer-chosen sequence of
// receiver operations — out-of-order adds above rcvNxt and monotone trims,
// the only call pattern the real receiver produces — and checks the
// invariants documented on the type after every step:
//
//   - blocks are sorted by Start in sequence order;
//   - blocks are disjoint and non-adjacent (adjacency merges on add);
//   - every block is nonempty;
//   - there are at most maxSackBlocks blocks;
//   - no block covers or precedes rcvNxt;
//   - every reported byte was actually added (eviction may lose
//     information, but blocks never fabricate it).
//
// The base sequence sits just below the 2^32 boundary so merges and trims
// exercise wraparound arithmetic.
func FuzzSackRanges(f *testing.F) {
	f.Add([]byte{0, 0, 10, 50, 1, 0, 80, 50, 3, 0, 30, 0})
	f.Add([]byte{0, 0, 0, 255, 0, 0, 1, 255, 0, 0, 2, 255, 0, 0, 3, 255, 0, 16, 0, 255})
	f.Add([]byte{3, 255, 255, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s sackRanges
		rcvNxt := ^uint32(0) - 1000 // straddle the wrap point
		added := make(map[uint32]bool)
		for len(data) >= 4 {
			op, data0, data1, data2 := data[0], data[1], data[2], data[3]
			data = data[4:]
			if op%4 == 3 {
				rcvNxt += 1 + uint32(binary.BigEndian.Uint16([]byte{data0, data1}))%2048
				s.trim(rcvNxt)
			} else {
				start := rcvNxt + 1 + uint32(binary.BigEndian.Uint16([]byte{data0, data1}))%8192
				length := uint32(data2) % 300 // zero exercises the ignore path
				s.add(start, start+length)
				for q := start; q != start+length; q++ {
					added[q] = true
				}
			}
			blks := s.blocks()
			if len(blks) > maxSackBlocks {
				t.Fatalf("%d blocks exceeds cap %d", len(blks), maxSackBlocks)
			}
			for i, b := range blks {
				if !seqLT(b.Start, b.End) {
					t.Fatalf("block %d [%d,%d) is empty or inverted", i, b.Start, b.End)
				}
				if !seqGT(b.Start, rcvNxt) {
					t.Fatalf("block %d [%d,%d) covers rcvNxt %d", i, b.Start, b.End, rcvNxt)
				}
				if i > 0 && !seqLT(blks[i-1].End, b.Start) {
					t.Fatalf("blocks %d and %d unsorted, overlapping, or unmerged-adjacent: [%d,%d) [%d,%d)",
						i-1, i, blks[i-1].Start, blks[i-1].End, b.Start, b.End)
				}
				for q := b.Start; q != b.End; q++ {
					if !added[q] {
						t.Fatalf("block %d [%d,%d) reports seq %d that was never added", i, b.Start, b.End, q)
					}
				}
			}
		}
	})
}

// FuzzSegmentRoundtrip checks that any encodable segment — arbitrary
// header fields, payload, and up to maxSackBlocks well-formed SACK blocks —
// survives EncodeTo → Decode with every field intact, and that decoding a
// corrupted copy never panics.
func FuzzSegmentRoundtrip(f *testing.F) {
	f.Add(uint16(80), uint16(1234), uint32(1), uint32(2), byte(FlagACK), uint32(65535), []byte("hello"), []byte{0, 0, 0, 10, 0, 3})
	f.Add(uint16(0), uint16(0), ^uint32(0), uint32(0), byte(FlagSYN|FlagSACKOK), uint32(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, srcPort, dstPort uint16, seq, ack uint32, flags byte, window uint32, payload, sackRaw []byte) {
		in := Segment{
			SrcPort: srcPort,
			DstPort: dstPort,
			Seq:     seq,
			Ack:     ack,
			Flags:   Flags(flags),
			Window:  window,
		}
		if len(payload) > 0 {
			in.Payload = iovec.FromBytes(payload)
		}
		for len(sackRaw) >= 6 && len(in.Sack) < maxSackBlocks {
			start := binary.BigEndian.Uint32(sackRaw[0:])
			length := 1 + uint32(binary.BigEndian.Uint16(sackRaw[4:]))
			in.Sack = append(in.Sack, SackBlock{Start: start, End: start + length})
			sackRaw = sackRaw[6:]
		}

		wire := encode(&in)
		out, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of freshly encoded segment failed: %v", err)
		}
		if out.SrcPort != in.SrcPort || out.DstPort != in.DstPort ||
			out.Seq != in.Seq || out.Ack != in.Ack ||
			out.Flags != in.Flags || out.Window != in.Window {
			t.Fatalf("header mismatch: got %+v, want %+v", out, in)
		}
		if out.Payload.Len() != len(payload) {
			t.Fatalf("payload length %d, want %d", out.Payload.Len(), len(payload))
		}
		if len(payload) > 0 {
			got := make([]byte, out.Payload.Len())
			out.Payload.CopyTo(got)
			if !bytes.Equal(got, payload) {
				t.Fatal("payload bytes changed in round trip")
			}
		}
		if len(out.Sack) != len(in.Sack) {
			t.Fatalf("SACK block count %d, want %d", len(out.Sack), len(in.Sack))
		}
		for i := range in.Sack {
			if out.Sack[i] != in.Sack[i] {
				t.Fatalf("SACK block %d = %+v, want %+v", i, out.Sack[i], in.Sack[i])
			}
		}

		// Corruption must be rejected or decoded — never a panic or an
		// out-of-bounds read. Flip one byte and truncate.
		corrupt := append([]byte(nil), wire...)
		corrupt[int(seq)%len(corrupt)] ^= 1 + byte(ack)
		_, _ = Decode(corrupt)
		_, _ = Decode(wire[:int(window)%len(wire)])
	})
}
