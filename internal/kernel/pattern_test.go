package kernel

import (
	"math"
	"testing"
)

// FuzzFillPattern holds the block fill to its one-byte spec: for any file
// name (the empty one included), any starting offset — negative, and past
// 2^33 where the carried hash has long since wrapped — and any length, the
// i-th byte FillPattern writes is PatternByte(name, off+i).
func FuzzFillPattern(f *testing.F) {
	f.Add("", int64(0), uint16(0))
	f.Add("", int64(-1), uint16(1))
	f.Add("f000017", int64(0), uint16(4096))
	f.Add("blob", int64(8192), uint16(4999))
	f.Add("a", int64(-5000), uint16(5000))
	f.Add("big", int64(1)<<33+12345, uint16(777))
	f.Add("\xff\x00", int64(math.MaxInt64-100), uint16(300))
	f.Add("min", int64(math.MinInt64), uint16(63))
	// The edges of the precomputed prefix: its last bytes, a fill that
	// crosses its end, the first byte past it, and one that ends in it.
	f.Add("edge", int64(len(patternPrefix)-1), uint16(2))
	f.Add("edge", int64(len(patternPrefix)-100), uint16(5000))
	f.Add("edge", int64(len(patternPrefix)), uint16(1))
	f.Add("edge", int64(-5), uint16(100))
	f.Fuzz(func(t *testing.T, name string, off int64, n uint16) {
		buf := make([]byte, int(n)%5001)
		FillPattern(buf, name, off)
		for i, got := range buf {
			if want := PatternByte(name, off+int64(i)); got != want {
				t.Fatalf("FillPattern(%q, off %d)[%d] = %#02x, PatternByte says %#02x", name, off, i, got, want)
			}
		}
	})
}

// BenchmarkFillPattern measures the fill on its own: a 16 KB read inside
// the precomputed prefix (every benchmark and figure file) and one past
// it (Figure 17's 1 GB file), which computes each byte.
func BenchmarkFillPattern(b *testing.B) {
	for _, bc := range []struct {
		name string
		off  int64
	}{{"prefix", 0}, {"past-prefix", 1 << 30}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 16<<10)
			b.SetBytes(int64(len(buf)))
			for range b.N {
				FillPattern(buf, "f000017", bc.off)
			}
		})
	}
}
