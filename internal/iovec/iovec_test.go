package iovec

import (
	"bytes"
	"testing"
	"testing/quick"
)

// vec builds a Vec sharing segs, in order.
func vec(segs ...[]byte) Vec {
	var v Vec
	for _, s := range segs {
		v = v.Append(s)
	}
	return v
}

// flat copies v out into a fresh contiguous slice.
func flat(v Vec) []byte {
	out := make([]byte, v.Len())
	v.CopyTo(out)
	return out
}

func TestAppendDropsEmptySegments(t *testing.T) {
	v := vec([]byte("ab"), nil, []byte(""), []byte("cd"))
	if v.Len() != 4 || v.Segments() != 2 {
		t.Fatalf("len=%d segs=%d", v.Len(), v.Segments())
	}
	if string(flat(v)) != "abcd" {
		t.Fatalf("bytes = %q", flat(v))
	}
}

func TestAppendSharesNotCopies(t *testing.T) {
	buf := []byte("hello")
	v := Vec{}.Append(buf)
	buf[0] = 'J'
	if string(flat(v)) != "Jello" {
		t.Fatal("Append copied instead of sharing")
	}
}

func TestSlice(t *testing.T) {
	v := vec([]byte("abc"), []byte("defg"), []byte("hi"))
	cases := []struct {
		from, to int
		want     string
	}{
		{0, 9, "abcdefghi"},
		{0, 0, ""},
		{2, 5, "cde"},
		{3, 7, "defg"},
		{8, 9, "i"},
		{4, 4, ""},
	}
	for _, c := range cases {
		got := string(flat(v.Slice(c.from, c.to)))
		if got != c.want {
			t.Fatalf("Slice(%d,%d) = %q, want %q", c.from, c.to, got, c.want)
		}
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	vec([]byte("ab")).Slice(0, 3)
}

func TestDropTake(t *testing.T) {
	v := vec([]byte("abcdef"))
	if string(flat(v.Drop(2))) != "cdef" || string(flat(v.Take(3))) != "abc" {
		t.Fatal("Drop/Take wrong")
	}
}

func TestConcat(t *testing.T) {
	a := vec([]byte("ab"))
	b := vec([]byte("cd"), []byte("ef"))
	if got := string(flat(a.Concat(b))); got != "abcdef" {
		t.Fatalf("Concat = %q", got)
	}
	if got := a.Concat(Vec{}); got.Len() != 2 {
		t.Fatal("Concat with empty changed length")
	}
	if got := (Vec{}).Concat(b); got.Len() != 4 {
		t.Fatal("empty Concat wrong")
	}
}

func TestCopyToShortBuffer(t *testing.T) {
	v := vec([]byte("abcdef"))
	p := make([]byte, 3)
	if n := v.CopyTo(p); n != 3 || string(p) != "abc" {
		t.Fatalf("CopyTo = %d %q", n, p)
	}
}

func TestSliceIsZeroCopy(t *testing.T) {
	base := []byte("0123456789")
	v := vec(base).Slice(2, 8)
	base[3] = 'X'
	if string(flat(v)) != "2X4567" {
		t.Fatal("Slice copied instead of sharing")
	}
}

// Property: any sequence of appends followed by any valid slice equals
// the same operations on a flat []byte.
func TestVecMatchesFlatModel(t *testing.T) {
	check := func(chunks [][]byte, a, b uint8) bool {
		v := Vec{}
		var model []byte
		for _, c := range chunks {
			v = v.Append(c)
			model = append(model, c...)
		}
		if v.Len() != len(model) {
			return false
		}
		if !bytes.Equal(flat(v), model) {
			return false
		}
		if len(model) == 0 {
			return true
		}
		from := int(a) % len(model)
		to := from + int(b)%(len(model)-from+1)
		return bytes.Equal(flat(v.Slice(from, to)), model[from:to])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
