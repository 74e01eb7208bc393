package tcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"testing"
)

// naiveChecksum is the byte-at-a-time loop checksum was written as — two
// reductions mod 65521 per byte — kept as the executable spec the
// block-wise one is fuzzed against.
func naiveChecksum(buf []byte) uint32 {
	var a, b uint32 = 1, 0
	for _, c := range buf[:21] {
		a = (a + uint32(c)) % 65521
		b = (b + a) % 65521
	}
	for i := 0; i < 4; i++ { // the zeroed checksum field: a is unchanged
		b = (b + a) % 65521
	}
	for _, c := range buf[25:] {
		a = (a + uint32(c)) % 65521
		b = (b + a) % 65521
	}
	return b<<16 | a
}

// checksumCorpus holds the buffers where a combine step can go wrong: the
// empty and one-byte tail, either side of adler32's deferred-modulo block
// (5,552) and of the modulus itself (where the tail length reduces to 0 and
// ±1), and a length whose product with a 16-bit sum overflows 32 bits unless
// reduced first. The word kernel adds its own edges, counted in bytes after
// the checksum field: a block of 128 bytes and a byte either side, and
// 5,504 (43 blocks, one reduction's worth) and a byte either side. All-0xff
// fill drives both sums, and every lane, to their largest.
func checksumCorpus() [][]byte {
	var corpus [][]byte
	lengths := []int{25, 26, 5551, 5552, 5553, 65520, 65521, 65522, 70000}
	for _, tail := range []int{127, 128, 129, 5503, 5504, 5505} {
		lengths = append(lengths, 25+tail)
	}
	for _, n := range lengths {
		for _, fill := range []byte{0x00, 0x5a, 0xff} {
			corpus = append(corpus, bytes.Repeat([]byte{fill}, n))
		}
	}
	return corpus
}

// FuzzChecksumMatchesNaive holds checksum to the loop it replaced on any
// buffer a segment can occupy, whatever the checksum field holds.
func FuzzChecksumMatchesNaive(f *testing.F) {
	for _, buf := range checksumCorpus() {
		f.Add(buf)
	}
	f.Add(encode(&Segment{SrcPort: 80, DstPort: 1234, Seq: 1, Ack: 2, Flags: FlagACK, Window: 65535}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) < headerSize {
			return
		}
		if got, want := checksum(buf), naiveChecksum(buf); got != want {
			t.Fatalf("checksum of %d bytes = %#08x, naive loop says %#08x", len(buf), got, want)
		}
	})
}

// TestChecksumIsAdler32 is the known-answer form of the same claim: the
// segment checksum is the standard Adler-32 of the buffer with the
// checksum field read as zero, and it neither reads nor writes that field.
func TestChecksumIsAdler32(t *testing.T) {
	for _, buf := range checksumCorpus() {
		binary.BigEndian.PutUint32(buf[21:], 0xdeadbeef)
		zeroed := append([]byte(nil), buf...)
		clear(zeroed[21:25])
		if got, want := checksum(buf), adler32.Checksum(zeroed); got != want {
			t.Errorf("checksum of %d × %#02x = %#08x, adler32 with the field zeroed = %#08x", len(buf), buf[0], got, want)
		}
		if binary.BigEndian.Uint32(buf[21:]) != 0xdeadbeef {
			t.Fatalf("checksum wrote to the checksum field")
		}
	}
}

// BenchmarkChecksum gives the word kernel its MB/s on a full segment
// (1,485 bytes: an MSS of payload and the header) and on 64 KB, beside
// hash/adler32 over the same bytes and a plain copy of them.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{headerSize + MSS, 64 << 10} {
		buf := bytes.Repeat([]byte("segment!"), n/8+1)[:n]
		dst := make([]byte, n)
		for _, bc := range []struct {
			name string
			fn   func()
		}{
			{"checksum", func() { checksumSink += checksum(buf) }},
			{"adler32", func() { checksumSink += adler32.Checksum(buf) }},
			{"copy", func() { copy(dst, buf) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", bc.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for range b.N {
					bc.fn()
				}
			})
		}
	}
}

var checksumSink uint32
