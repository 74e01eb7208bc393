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
